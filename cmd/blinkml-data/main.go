// Command blinkml-data manages the persistent dataset store from the shell:
// import CSV/LibSVM files into the binary row format, inspect manifests,
// draw out-of-core samples, and export back to text formats. It operates on
// the same store directory blinkml-serve uses (<registry>/datasets by
// default): a running server adopts a completed CLI import on the first
// train request that names its id. (Avoid *concurrent* imports from two
// processes into one directory — each issues ids from its own counter.)
//
// Usage:
//
//	blinkml-data import  -store DIR -format csv -task binary [-name n] [-label-col -1] FILE
//	blinkml-data list    -store DIR
//	blinkml-data inspect -store DIR [-verify] ID
//	blinkml-data sample  -store DIR -n 1000 [-seed 1] [-format csv] [-out FILE] ID
//	blinkml-data export  -store DIR [-format libsvm] [-out FILE] ID
//
// Sampling is out of core: the seeded pseudorandom permutation touches only
// the n requested rows, and samples at the same seed nest — sample 100 is a
// prefix of sample 1000.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"blinkml/internal/dataset"
	"blinkml/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "import":
		err = cmdImport(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "sample":
		err = cmdSample(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "blinkml-data: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blinkml-data:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `blinkml-data manages the blinkml dataset store.

commands:
  import   stream a CSV/LibSVM file into the store
  list     list stored datasets
  inspect  show a dataset's manifest (-verify checks checksums)
  sample   materialize an out-of-core sample (nested across sizes per seed)
  export   stream a dataset back out as CSV/LibSVM

run "blinkml-data <command> -h" for the command's flags
`)
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	var (
		dir      = fs.String("store", "./blinkml-models/datasets", "dataset store directory")
		format   = fs.String("format", "csv", "input format: csv | libsvm")
		task     = fs.String("task", "regression", "label semantics: regression | binary | multiclass | unsupervised")
		name     = fs.String("name", "", "dataset name (default: the assigned id)")
		labelCol = fs.Int("label-col", -1, "CSV label column (negative counts from the end)")
		dim      = fs.Int("dim", 0, "declared dimension (0 = infer; LibSVM only)")
		classes  = fs.Int("classes", 0, "class count for multiclass (0 = infer from the labels)")
		maxLine  = fs.Int("max-line-bytes", 0, "line length cap (0 = 16 MiB default)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("import needs exactly one input file (or - for stdin), got %d args", fs.NArg())
	}
	t, err := dataset.ParseTask(*task)
	if err != nil {
		return err
	}
	in := os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	h, err := st.Ingest(in, store.IngestOptions{
		Name:         *name,
		Format:       *format,
		Task:         t,
		NumClasses:   *classes,
		LabelCol:     dataset.Column(*labelCol),
		Dim:          *dim,
		MaxLineBytes: *maxLine,
	})
	if err != nil {
		return err
	}
	man := h.Manifest()
	fmt.Printf("imported %s: %d rows × %d features (%s, %s, %.1f%% dense, %d bytes on disk)\n",
		h.ID, man.Rows, man.Dim, man.Task, man.SourceFormat, 100*man.Density(), h.DiskBytes())
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("store", "./blinkml-models/datasets", "dataset store directory")
	fs.Parse(args)
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tNAME\tTASK\tROWS\tDIM\tFORMAT\tBYTES")
	for _, id := range st.List() {
		h, err := st.Get(id)
		if err != nil {
			continue
		}
		m := h.Manifest()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%s\t%d\n", id, m.Name, m.Task, m.Rows, m.Dim, m.SourceFormat, h.DiskBytes())
	}
	return tw.Flush()
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	var (
		dir    = fs.String("store", "./blinkml-models/datasets", "dataset store directory")
		verify = fs.Bool("verify", false, "re-read both data files and check their CRC32 checksums")
	)
	fs.Parse(args)
	h, err := datasetArg(fs, *dir)
	if err != nil {
		return err
	}
	m := h.Manifest()
	fmt.Printf("id             %s\n", h.ID)
	fmt.Printf("name           %s\n", m.Name)
	fmt.Printf("task           %s\n", m.Task)
	fmt.Printf("rows × dim     %d × %d\n", m.Rows, m.Dim)
	if m.NumClasses > 0 {
		fmt.Printf("classes        %d\n", m.NumClasses)
	}
	enc := "dense"
	if m.Sparse {
		enc = "sparse"
	}
	fmt.Printf("encoding       %s, density %.4f%% (%d stored entries, %.1f nnz/row)\n",
		enc, 100*m.Density(), m.NNZ, float64(m.NNZ)/float64(m.Rows))
	fmt.Printf("labels         min %g, max %g, mean %g\n", m.LabelMin, m.LabelMax, m.LabelMean)
	fmt.Printf("disk           rows.bin %d B (crc %08x), index.bin %d B (crc %08x)\n",
		m.RowBytes, m.RowCRC32, m.IndexBytes, m.IndexCRC32)
	fmt.Printf("source         %s, imported %s\n", m.SourceFormat, m.CreatedAt.Format("2006-01-02 15:04:05 MST"))
	if *verify {
		if err := h.Verify(); err != nil {
			return err
		}
		fmt.Println("checksums      OK")
	}
	return nil
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	var (
		dir    = fs.String("store", "./blinkml-models/datasets", "dataset store directory")
		n      = fs.Int("n", 1000, "sample size")
		seed   = fs.Int64("seed", 1, "sampling seed (same seed → nested samples across sizes)")
		format = fs.String("format", "csv", "output format: csv | libsvm")
		out    = fs.String("out", "", "output path (default stdout)")
	)
	fs.Parse(args)
	h, err := datasetArg(fs, *dir)
	if err != nil {
		return err
	}
	ds, err := h.SamplePrefix(*seed, *n)
	if err != nil {
		return err
	}
	return writeOut(*out, func(w io.Writer) error { return dataset.WriteText(w, *format, ds) })
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var (
		dir    = fs.String("store", "./blinkml-models/datasets", "dataset store directory")
		format = fs.String("format", "csv", "output format: csv | libsvm")
		out    = fs.String("out", "", "output path (default stdout)")
	)
	fs.Parse(args)
	h, err := datasetArg(fs, *dir)
	if err != nil {
		return err
	}
	// Rows stream from the store a chunk at a time (at most 1024 rows and
	// 1 MiB of dense rows) into one row writer: the export never
	// materializes the dataset. Stored labels are written as they are, an
	// unsupervised store's too.
	return writeOut(*out, func(w io.Writer) error {
		rw, err := dataset.NewRowWriter(w, *format, h.Meta().Dim)
		if err != nil {
			return err
		}
		if err := h.Scan(func(_ int, row dataset.Row, label float64) error { return rw.Write(row, label) }); err != nil {
			return err
		}
		return rw.Flush()
	})
}

// datasetArg opens, in the store at dir, the one dataset id a command
// takes.
func datasetArg(fs *flag.FlagSet, dir string) (*store.Handle, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("%s needs exactly one dataset id", fs.Name())
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return st.Get(fs.Arg(0))
}

// writeOut hands write the file at path, or stdout when path is empty.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
