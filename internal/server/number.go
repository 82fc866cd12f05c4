package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// A JSON number's value is built in the pass that checks its grammar
// (object.number) and converted here the way strconv.ParseFloat converts
// it: the exact small-power path first, then Eisel–Lemire (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021) over a 128-bit table
// of powers of ten. Each step either returns strconv's own answer or
// declines; a declined number — more than 19 significant digits, a
// halfway case, overflow, a subnormal — goes to strconv.ParseFloat, so
// every result, error included, is ParseFloat's (FuzzNumber holds it).

// decimal is a scanned number as strconv's readFloat leaves it: the
// value is mant × 10^exp, negated when neg, unless trunc says the number
// has more than 19 significant digits and mant holds the first 19.
type decimal struct {
	mant       uint64
	exp        int
	neg, trunc bool
	// plain: digits only, no sign, fraction or exponent.
	plain bool
}

// maxMantDigits significant digits always fit a uint64.
const maxMantDigits = 19

// float64 returns d's value and true, or false where strconv.ParseFloat
// would leave its fast paths.
func (d *decimal) float64() (float64, bool) {
	if d.trunc {
		return 0, false
	}
	if f, ok := exactFloat64(d.mant, d.exp, d.neg); ok {
		return f, true
	}
	return eiselLemire64(d.mant, d.exp, d.neg)
}

// foldDigits folds the run of digits at b[i:] into mant, which holds
// nd significant digits already, and returns where the run ends, the
// mantissa and the count. Digits past the 19th are counted, not kept.
func foldDigits(b []byte, i int, mant uint64, nd int) (end int, m uint64, n int) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		if nd < maxMantDigits {
			mant = mant*10 + uint64(b[i]-'0')
		}
		nd++
	}
	return i, mant, nd
}

// pow10Exact are the powers of ten a float64 holds exactly.
var pow10Exact = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat64 is strconv's atof64exact: a mantissa below 2⁵² and a
// power of ten a float64 holds exactly make one correctly rounded
// multiplication or division. An exponent up to 15 past 22 moves into the
// mantissa while that stays below 10¹⁵.
func exactFloat64(mant uint64, exp int, neg bool) (float64, bool) {
	if mant>>52 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= pow10Exact[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * pow10Exact[exp], true
	case exp < 0 && exp >= -22:
		return f / pow10Exact[-exp], true
	}
	return 0, false
}

// The range of the power-of-ten table, strconv's.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds, for each power of ten from 10^pow10Min to
// 10^pow10Max, its leading 128 bits rounded down, as {low, high} with
// high's top bit set; the binary exponent is implied. Built once, on
// first use.
var pow10Table = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	top128 := func(e int, m *big.Int) {
		var buf [16]byte
		m.FillBytes(buf[:])
		t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	p, m, ten := big.NewInt(1), new(big.Int), big.NewInt(10)
	for e := 0; e <= -pow10Min; e++ {
		if e <= pow10Max {
			if n := p.BitLen(); n > 128 {
				top128(e, m.Rsh(p, uint(n-128)))
			} else {
				top128(e, m.Lsh(p, uint(128-n)))
			}
		}
		if e > 0 {
			// 10^-e = 2^-(n+127) · 2^(n+127)/10^e, and with 10^e of n
			// bits the quotient has 128.
			m.Lsh(big.NewInt(1), uint(p.BitLen()+127))
			top128(-e, m.Quo(m, p))
		}
		p.Mul(p, ten)
	}
	return &t
})

// eiselLemire64 is strconv's eiselLemire64 (the comments name the
// sections of https://nigeltao.github.io/blog/2020/eisel-lemire.html):
// mant × 10^exp10 correctly rounded, or false where the 128-bit product
// cannot decide the rounding or the result is not a normal float64.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Table()[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// Zero or underflow is subnormal, 0x7FF or above Inf/NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
