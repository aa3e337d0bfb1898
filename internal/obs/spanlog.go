package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// SpanLog is the file-backed span sink behind -span-log: buffered JSONL
// appends (one span object per line, in the Span JSON schema) with
// size-capped rotation. When maxBytes > 0 and a batch would push the file
// past the cap, the current file is atomically renamed to <path>.old
// (replacing the previous .old, so disk usage is bounded at roughly
// 2×maxBytes) and a fresh file is started. Safe for concurrent use;
// Close flushes the buffer, so a graceful server shutdown never truncates
// the last job's spans.
type SpanLog struct {
	path     string
	maxBytes int64

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	size int64
}

// OpenSpanLog opens (appending) or creates the span log at path. maxBytes
// ≤ 0 disables rotation, preserving the unbounded pre-rotation behavior.
func OpenSpanLog(path string, maxBytes int64) (*SpanLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open span log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: stat span log: %w", err)
	}
	return &SpanLog{
		path:     path,
		maxBytes: maxBytes,
		f:        f,
		w:        bufio.NewWriter(f),
		size:     st.Size(),
	}, nil
}

// Write appends the batch as JSONL, rotating first if it would push the
// file past the size cap. The batch is encoded up front so a partially
// encodable batch never leaves a torn line behind.
func (l *SpanLog) Write(spans []Span) error {
	if l == nil || len(spans) == 0 {
		return nil
	}
	var buf []byte
	for _, sp := range spans {
		line, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.maxBytes > 0 && l.size > 0 && l.size+int64(len(buf)) > l.maxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.w.Write(buf)
	l.size += int64(n)
	return err
}

// rotateLocked swaps the live file for a fresh one, keeping exactly one
// generation as <path>.old. The rename is atomic, so a crash mid-rotation
// leaves either the old layout or the new one — never a half state.
func (l *SpanLog) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(l.path, l.path+".old"); err != nil {
		return fmt.Errorf("obs: rotate span log: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("obs: reopen span log: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = 0
	return nil
}

// Flush pushes buffered lines to disk.
func (l *SpanLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

// Close flushes and closes the file.
func (l *SpanLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ferr := l.w.Flush()
	cerr := l.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
