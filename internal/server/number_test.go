package server

import (
	"errors"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the grammar object.number scans, written independently.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// numberCorpus seeds FuzzNumber: signed zero, halfway and near-halfway
// cases on either side of Eisel–Lemire's decision, the subnormal floor,
// the float64 and uint64 ceilings, an exponent strconv's accumulator
// caps, and a mantissa far past 19 digits.
var numberCorpus = []string{
	"-0",
	"0",
	"9007199254740993",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"2.4703282292062327e-324",
	"2.4703282292062328e-324",
	"1.7976931348623159e308",
	"18446744073709551615",
	"18446744073709551616",
	"1e" + strings.Repeat("9", 10000),
	"0." + strings.Repeat("0", 100000) + "1e100005",
	"7" + strings.Repeat("3", 799),
	"123456789012345678901e-20",
	"1000000000000000000000000",
	"4.9e-324",
	"1e23",
	"1e999",
	"-1e-999",
	"0.1",
	"-12.5E+3",
	"01",
	"+1",
	".5",
	"1.",
	"1e",
	"-",
	"0x10",
	"1_000",
	"Inf",
	"1 ",
	"",
}

// checkNumber holds object.float and object.uint on text to
// strconv.ParseFloat and ParseUint: the same verdict, the same value to
// the bit, and the same error kind. Text outside the JSON grammar must
// not be taken whole as a number.
func checkNumber(t *testing.T, text []byte) {
	t.Helper()
	if string(text) == "null" {
		return // a value, not a number: the member is left alone
	}
	var f float64
	fo := object{b: text, key: []byte("x")}
	fo.float(&f)
	var u uint64
	uo := object{b: text, key: []byte("id")}
	uo.uint(&u)
	if !jsonNumber.Match(text) {
		if fo.err == nil && fo.i == len(text) || uo.err == nil && uo.i == len(text) {
			t.Fatalf("%.80q is not a JSON number, yet the scanner took it whole", text)
		}
		return
	}
	if fo.i != len(text) || uo.i != len(text) {
		t.Fatalf("%.80q: the scanner stopped at %d and %d of %d bytes", text, fo.i, uo.i, len(text))
	}
	want, err := strconv.ParseFloat(string(text), 64)
	sameNumber(t, text, math.Float64bits(f), fo.err, math.Float64bits(want), err)
	wantU, err := strconv.ParseUint(string(text), 10, 64)
	sameNumber(t, text, u, uo.err, wantU, err)
}

func sameNumber(t *testing.T, text []byte, got uint64, gotErr error, want uint64, wantErr error) {
	t.Helper()
	if wantErr == nil {
		if gotErr != nil || got != want {
			t.Fatalf("%.80q: scanner %#x, %v; strconv %#x", text, got, gotErr, want)
		}
		return
	}
	if kind := wantErr.(*strconv.NumError).Err; !errors.Is(gotErr, kind) {
		t.Fatalf("%.80q: scanner says %v, strconv %v", text, gotErr, wantErr)
	}
}

func FuzzNumber(f *testing.F) {
	for _, text := range numberCorpus {
		f.Add([]byte(text))
	}
	f.Fuzz(checkNumber)
}

// TestNumbersMatchStrconv runs checkNumber over seeded FormatFloat text
// in every format and precision strconv writes — random bits, normal,
// scaled and integer values — and over uint64 text of every length.
func TestNumbersMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			for {
				if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
					return v
				}
			}
		case 1:
			return rng.NormFloat64()
		case 2:
			return rng.NormFloat64() * math.Pow10(rng.Intn(61)-30)
		}
		return float64(rng.Int63()>>uint(rng.Intn(63))) * float64(1-2*rng.Intn(2))
	}
	var b []byte
	for range 300_000 {
		v, prec := value(), rng.Intn(25)-1
		b = strconv.AppendFloat(b[:0], v, "gef"[rng.Intn(3)], prec, 64)
		checkNumber(t, b)
	}
	for range 20_000 {
		b = strconv.AppendUint(b[:0], rng.Uint64()>>uint(rng.Intn(64)), 10)
		checkNumber(t, b)
	}
}

// TestPow10Table pins entries of the power-of-ten table to strconv's.
func TestPow10Table(t *testing.T) {
	for _, c := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{22, 0, 0x878678326EAC9000},
		{23, 0, 0xA968163F0A57B400},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10Table()[c.exp10-pow10Min]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", c.exp10, got[0], got[1], c.lo, c.hi)
		}
	}
	for i, p := range pow10Table() {
		if p[1]>>63 != 1 {
			t.Fatalf("10^%d: high word %#x is not normalised", i+pow10Min, p[1])
		}
	}
}
