package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkParse fails t unless ParseFloat(s) is strconv.ParseFloat(s, 64): the
// same bits (any NaN for a NaN) and the same accept or refuse.
func checkParse(t *testing.T, s string) {
	t.Helper()
	got, gerr := ParseFloat([]byte(s))
	want, werr := strconv.ParseFloat(s, 64)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%q: error %v, strconv's %v", s, gerr, werr)
	}
	if werr == nil && !sameBits(got, want) {
		t.Fatalf("%q: %v (%#x), strconv's %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// hardNumbers, FuzzParseFloat's seeds beside its committed corpus, are the
// texts a fast float parser gets wrong first: mantissas at and past 19
// digits, leading zeros past them, halfway cases, the subnormal and normal
// boundaries, overflow, signed and scaled zeros, and every spelling the fast
// path must leave to strconv.
var hardNumbers = []string{
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615",
	"18446744073709551616", "0.1234567890123456789", "1.234567890123456789e-5",
	"0000000000000000000000123", "0.0000000000000000000000123", "000000000000000000001234567890123456789",
	"9007199254740993", "9007199254740992", "9007199254740994", "9007199254740995",
	"4503599627370496.5", "4503599627370497.5", "2.0000000000000002220446049250313080847263336181640625",
	"1.00000000000000011102230246251565404236316680908203125", "0.1", "0.3", "1e23", "8.98846567431158e307",
	"4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "5e-324", "1e-324",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309",
	"-0", "+0", "0", "-0.0", "0e999", "-0e-999", "0e99999999999", "1e-99999999999", "1e99999999999",
	"+.5", "-.5", "5.", ".", "-", "+", "", "1e", "1e+", "1e-", "e5", ".e5", "1.e5", "1..5", "1.5.",
	"1_0", "1_000.5", "0x1p3", "0X1.8P-2", "0x", "inf", "-Inf", "+infinity", "NaN", "nan", "infx",
	" 1", "1 ", "1,", "1e5x", "--1", "+-1", "1E5", "1e+05", "1e-05", "123456789e-30", "1e22", "1e-22",
	"9007199254740991e22", "9007199254740991e-22", "1.5e-348", "1.5e-349", "1.5e347", "1e-400",
	"12345678901234567e-340", "0.000000000000000000000000000000000000000000001",
}

// TestParseFloatMatchesStrconv parses shortest, exponent and fixed forms of
// normal draws across many scales, random bit patterns (NaN, ±Inf and
// subnormals included), k/8 values and values near 10⁻³⁰⁰.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for k := range n {
		var v float64
		switch k % 4 {
		case 0:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
		case 1:
			v = math.Float64frombits(rng.Uint64())
		case 2:
			v = float64(rng.Intn(1<<20)-1<<19) / 8
		case 3:
			v = rng.Float64() * 1e-300
		}
		checkParse(t, strconv.FormatFloat(v, 'g', -1, 64))
		checkParse(t, strconv.FormatFloat(v, 'e', rng.Intn(20), 64))
		checkParse(t, strconv.FormatFloat(v, 'f', rng.Intn(25), 64))
	}
}

// The 128-bit powers of ten agree with strconv's table at its first and last
// rows and at the entries its comment and Eisel–Lemire's paper spell out.
func TestPow10Table(t *testing.T) {
	for _, c := range []struct {
		q      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10Table()[c.q-minPow10]; got != [2]uint64{c.hi, c.lo} {
			t.Errorf("1e%d: %#x, want [%#x %#x]", c.q, got, c.hi, c.lo)
		}
	}
}

// FuzzParseFloat: whatever the bytes, ParseFloat returns strconv.ParseFloat's
// bits (any NaN for a NaN) and accepts and refuses exactly what it does. Its
// seeds and corpus run under go test as the hard-case table.
func FuzzParseFloat(f *testing.F) {
	for _, s := range hardNumbers {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkParse(t, string(b))
	})
}

var parseSink float64

// BenchmarkParseFloat reads shortest-form normal draws, the text the
// benchmark's CSV and LibSVM inputs carry, through ParseFloat and through
// strconv.ParseFloat; an op is one number.
func BenchmarkParseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	texts := make([][]byte, n)
	for i := range texts {
		texts[i] = strconv.AppendFloat(nil, rng.NormFloat64(), 'g', -1, 64)
	}
	for _, c := range []struct {
		name  string
		parse func([]byte) (float64, error)
	}{
		{"dataset", ParseFloat},
		{"strconv", func(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sum float64
			for i := range b.N {
				v, _ := c.parse(texts[i%n])
				sum += v
			}
			parseSink = sum
		})
	}
}

// jsonNumberRef is the JSON number grammar walk the predict decoder ran
// before ParseJSONNumber, kept as FuzzParseJSONNumber's oracle: the length
// of the number -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at the start
// of b, or 0 when none starts it.
func jsonNumberRef(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = refDigits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := refDigits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := refDigits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// refDigits returns the index of the first non-digit at or after i.
func refDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// FuzzParseJSONNumber: whatever the bytes, ParseJSONNumber accepts exactly
// when the reference walk finds a JSON number that no digit follows and
// strconv.ParseFloat accepts its bytes, and then returns that number's
// length and strconv's bits. The committed corpus holds the spellings only
// strconv takes, the out-of-range exponents and the exponent-cap trap
// (0. + 65 535 zeros + 1e65540, which is 10⁴).
func FuzzParseJSONNumber(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m := jsonNumberRef(b)
		want := m > 0 && (m == len(b) || b[m] < '0' || '9' < b[m])
		var wv float64
		if want {
			var err error
			wv, err = strconv.ParseFloat(string(b[:m]), 64)
			want = err == nil
		}
		v, n, ok := ParseJSONNumber(b)
		if ok != want {
			t.Fatalf("%q: ok %v, want %v", b, ok, want)
		}
		if ok && (n != m || !sameBits(v, wv)) {
			t.Fatalf("%q: %v (%#x) over %d bytes, want %v (%#x) over %d", b, v, math.Float64bits(v), n, wv, math.Float64bits(wv), m)
		}
	})
}
