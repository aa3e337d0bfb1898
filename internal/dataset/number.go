package dataset

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// ParseFloat returns what strconv.ParseFloat returns for string(b) at 64
// bits, bit for bit, and refuses exactly what that call refuses, without
// making a string for the common case: an optional sign, at most 19
// significant digits, an optional fraction and an optional decimal
// exponent. Such a number is one float multiply or divide when it is exact
// (a mantissa below 2⁵³ and a power of ten up to 10²²), and otherwise the
// Eisel–Lemire algorithm strconv itself runs once its scanner is done
// (Lemire, "Number Parsing at a Gigabyte per Second", 2021). Every other
// text — more digits, a point with no digit after it, hex, inf and nan,
// underscores, a value out of range, any other byte, and the rare case
// Eisel–Lemire cannot decide — goes to strconv.ParseFloat, so correctness
// never rests on the fast path covering everything.
func ParseFloat(b []byte) (float64, error) {
	if v, n, ok := parseDecimal(b); ok && n == len(b) {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// ParseJSONNumber reads the JSON number at the start of b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns ParseFloat's
// value for exactly its n bytes: the bits encoding/json decodes. ok is false
// when no such number starts b, when a digit follows one (01 is no JSON
// number) and when ParseFloat refuses it (out of range).
func ParseJSONNumber(b []byte) (v float64, n int, ok bool) {
	v, n, ok = parseDecimal(b)
	if n == 0 {
		return 0, 0, false
	}
	// parseDecimal's grammar is JSON's but for its first bytes: JSON takes
	// no plus sign, needs an integer part and allows no leading zero
	// before another digit.
	k := int(signWidth[b[0]])
	if b[0] == '+' || b[k] == '.' || b[k] == '0' && k+1 < n && '0' <= b[k+1] && b[k+1] <= '9' {
		return 0, 0, false
	}
	if ok {
		return v, n, true
	}
	v, err := ParseFloat(b[:n])
	return v, n, err == nil
}

// maxExp10 bounds the exponent the fast path evaluates; a longer one is
// strconv's (it saturates far beyond any float64).
const maxExp10 = 1 << 16

// parseDecimal reads the number at the start of b (an optional sign, digits,
// a point with digits after it, an exponent) and returns its length n, 0
// when none starts b, and, when ok, its value: ParseFloat's fast path. ok is
// false for any number it does not evaluate, whether strconv takes it or not.
func parseDecimal(b []byte) (f float64, n int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	// The sign is read without a branch: data signs are coin flips.
	neg := b[0] == '-'
	i := int(signWidth[b[0]])
	start := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	// man takes the significant digits, leading zeros skipped; nd counts
	// them. Past 19 digits man may wrap, but then the number is strconv's.
	lead := i
	man, i := readDigits(b, i, 0)
	nd := i - lead
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		lead := i
		man, i = readDigits(b, i, man)
		nd += i - lead
		exp = frac - i
		if i == frac {
			return 0, 0, false
		}
	} else if i == start {
		return 0, 0, false
	}
	ok = nd <= 19
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			eneg = b[i] == '-'
			i++
		}
		// Every digit counts toward n; past the cap e stops and is not evaluated.
		e, j := 0, i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < maxExp10 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, 0, false
		}
		ok = ok && e < maxExp10
		if eneg {
			e = -e
		}
		exp += e
	}
	if !ok {
		return 0, i, false
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	}
	if man < 1<<53 && -22 <= exp && exp <= 22 {
		f = float64(man)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / exactPow10[-exp], i, true
		}
		return f * exactPow10[exp], i, true
	}
	f, ok = eiselLemire(man, exp, neg)
	return f, i, ok
}

// signWidth is 1 for a sign byte and 0 for any other.
var signWidth = [256]uint8{'+': 1, '-': 1}

// readDigits appends the decimal digits at b[i:] to man, eight at a time
// while eight are left, and returns it with the index of the first
// non-digit.
func readDigits(b []byte, i int, man uint64) (uint64, int) {
	for len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightDigitsValue(v)
		i += 8
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return man, i
}

// eightDigits reports whether all eight bytes of v, read little-endian, are
// ASCII digits.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|(((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4) == 0x3333333333333333
}

// eightDigitsValue is the number eight ASCII digits spell, the first in v's
// lowest byte: pairs, then quads, then the whole, each by one multiply.
func eightDigitsValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*mul1 + (v>>16&mask)*mul2) >> 32
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// The 128-bit powers of ten cover 10^minPow10 … 10^maxPow10; a number
// outside that range is 0 or ±Inf and strconv's.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table holds, for each q in [minPow10, maxPow10], 10^q's first 128
// bits (hi, lo), rounded down, with hi's top bit set: the table strconv's
// Eisel–Lemire reads, built once with math/big at first use.
var pow10Table = sync.OnceValue(func() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	ten, one := big.NewInt(10), big.NewInt(1)
	p, x := new(big.Int), new(big.Int)
	var b [16]byte
	for q := minPow10; q <= maxPow10; q++ {
		p.Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		if q >= 0 {
			// 10^q itself, shifted to 128 bits.
			if n := p.BitLen(); n > 128 {
				x.Rsh(p, uint(n-128))
			} else {
				x.Lsh(p, uint(128-n))
			}
		} else {
			// ⌊2^k / 10^-q⌋ for the k that leaves 128 bits: 10^-q has
			// n bits and is no power of two, so the quotient lies in
			// (2^127, 2^128).
			x.Quo(x.Lsh(one, uint(127+p.BitLen())), p)
		}
		x.FillBytes(b[:])
		t[q-minPow10] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	return &t
})

// eiselLemire returns man × 10^exp10, negated when neg, correctly rounded,
// for man ≠ 0; ok is false when the 128-bit product cannot decide the
// rounding or the result is not a normal float64. It follows strconv's
// eiselLemire64 step for step.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if exp10 < minPow10 || maxPow10 < exp10 {
		return 0, false
	}
	pow := &pow10Table()[exp10-minPow10]
	// Normalize the mantissa to a top bit of one.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)
	// Multiply by the upper 64 bits of the power.
	xHi, xLo := bits.Mul64(man, pow[0])
	// When the lower 9 bits of the product's top half are all ones, the
	// lower 64 bits of the power may carry into them.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Shift to 54 bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// An exact halfway case is strconv's to round.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	// Round to 53 bits, half to even.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// A zero or wrapped exponent is subnormal, 0x7FF or above is ±Inf:
	// both are strconv's.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	ret := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		ret |= 1 << 63
	}
	return math.Float64frombits(ret), true
}
