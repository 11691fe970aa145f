package chips

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The word-parallel kernels (AddSigns, CorrelateAt, Slice, Concat) are
// checked here against per-chip references built only on At, so a
// shift or mask slip at a word boundary shows up as a mismatch.

// kernelLens covers every length from 1 to 300: each residue mod 64
// and each word count up to five.
func kernelLens() []int {
	lens := make([]int, 300)
	for i := range lens {
		lens[i] = i + 1
	}
	return lens
}

// refAddSigns is the per-chip reference for AddSigns.
func refAddSigns(dst []int32, s Sequence, from int, neg bool) {
	for i := range dst {
		v := int32(s.At(from + i))
		if neg {
			v = -v
		}
		dst[i] += v
	}
}

// refCorrelateAt is the per-chip reference for CorrelateAt.
func refCorrelateAt(code Sequence, buf []int32, off int) float64 {
	var acc int64
	for i := 0; i < code.Len(); i++ {
		acc += int64(code.At(i)) * int64(buf[off+i])
	}
	return float64(acc) / float64(code.Len())
}

// refSigns is the per-chip reference for Slice and Concat: the chips of
// parts, end to end.
func refSigns(parts ...Sequence) []int8 {
	var out []int8
	for _, p := range parts {
		for i := 0; i < p.Len(); i++ {
			out = append(out, p.At(i))
		}
	}
	return out
}

func randomBuf(rng *rand.Rand, n int) []int32 {
	buf := make([]int32, n)
	for i := range buf {
		buf[i] = int32(rng.Intn(41) - 20)
	}
	return buf
}

func sameSigns(s Sequence, want []int8) bool {
	if s.Len() != len(want) {
		return false
	}
	for i, v := range want {
		if s.At(i) != v {
			return false
		}
	}
	// The tail past n must stay masked, or Equal, Weight and Correlate
	// would count garbage chips.
	return s.Equal(FromSigns(want))
}

// checkAddSigns compares AddSigns on chips [from, from+count) of s
// against the reference, on a dirty buffer.
func checkAddSigns(t *testing.T, rng *rand.Rand, s Sequence, from, count int, neg bool) {
	t.Helper()
	got := randomBuf(rng, count)
	want := append([]int32(nil), got...)
	s.AddSigns(got, from, neg)
	refAddSigns(want, s, from, neg)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d from=%d count=%d neg=%v: dst[%d] = %d, want %d", s.Len(), from, count, neg, i, got[i], want[i])
		}
	}
}

func TestAddSignsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range kernelLens() {
		s := NewRandom(rng, n)
		for _, neg := range []bool{false, true} {
			// Whole sequence, an unaligned head cut, a one-chip
			// window at the end, and a random interior window.
			checkAddSigns(t, rng, s, 0, n, neg)
			checkAddSigns(t, rng, s, n/3, n-n/3, neg)
			checkAddSigns(t, rng, s, n-1, 1, neg)
			from := rng.Intn(n)
			checkAddSigns(t, rng, s, from, rng.Intn(n-from+1), neg)
		}
	}
}

func TestPropertyAddSigns(t *testing.T) {
	f := func(seed int64, nRaw, fromRaw, countRaw uint16, neg bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		from := int(fromRaw) % n
		count := int(countRaw) % (n - from + 1)
		s := NewRandom(rng, n)
		got := randomBuf(rng, count)
		want := append([]int32(nil), got...)
		s.AddSigns(got, from, neg)
		refAddSigns(want, s, from, neg)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSignsRangePanics(t *testing.T) {
	s := NewRandom(rand.New(rand.NewSource(1)), 100)
	for _, tc := range []struct{ from, count int }{{-1, 10}, {95, 6}, {101, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSigns(from=%d, count=%d) on 100 chips did not panic", tc.from, tc.count)
				}
			}()
			s.AddSigns(make([]int32, tc.count), tc.from, false)
		}()
	}
}

func TestCorrelateAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range kernelLens() {
		code := NewRandom(rng, n)
		buf := randomBuf(rng, n+130)
		for _, off := range []int{0, 1, 63, 64, 65, 129, 130} {
			if got, want := CorrelateAt(code, buf, off), refCorrelateAt(code, buf, off); got != want {
				t.Fatalf("n=%d off=%d: CorrelateAt = %v, want %v", n, off, got, want)
			}
		}
	}
}

func TestPropertyCorrelateAt(t *testing.T) {
	f := func(seed int64, nRaw, offRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		off := int(offRaw) % 200
		code := NewRandom(rng, n)
		buf := randomBuf(rng, off+n+rng.Intn(64))
		return CorrelateAt(code, buf, off) == refCorrelateAt(code, buf, off)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceAndConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range kernelLens() {
		s := NewRandom(rng, n)
		for _, from := range []int{0, 1, n / 2, n - 1, n} {
			to := from + rng.Intn(n-from+1)
			want := refSigns(s)[from:to]
			if got := s.Slice(from, to); !sameSigns(got, want) {
				t.Fatalf("n=%d: Slice(%d,%d) = %v, want %v", n, from, to, got.Signs(), want)
			}
		}
		// Cutting anywhere, word-aligned or not, and joining the
		// pieces gives s back.
		for _, k := range []int{rng.Intn(n + 1), n / 64 * 64} {
			if !Concat(s.Slice(0, k), s.Slice(k, n)).Equal(s) {
				t.Fatalf("n=%d: Slice at %d and Concat did not reconstruct the sequence", n, k)
			}
		}
		t2 := NewRandom(rng, rng.Intn(300))
		t3 := NewRandom(rng, rng.Intn(300))
		if got := Concat(s, t2, t3); !sameSigns(got, refSigns(s, t2, t3)) {
			t.Fatalf("Concat of %d+%d+%d chips differs from the per-chip reference", n, t2.Len(), t3.Len())
		}
	}
	if got := Concat(); got.Len() != 0 {
		t.Fatalf("Concat() has %d chips, want 0", got.Len())
	}
}

func TestPropertySliceConcat(t *testing.T) {
	f := func(seed int64, lens [4]uint16, fromRaw, toRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]Sequence, len(lens))
		for i, l := range lens {
			parts[i] = NewRandom(rng, int(l)%300)
		}
		whole := Concat(parts...)
		want := refSigns(parts...)
		if !sameSigns(whole, want) {
			return false
		}
		from := int(fromRaw) % (len(want) + 1)
		to := from + int(toRaw)%(len(want)-from+1)
		return sameSigns(whole.Slice(from, to), want[from:to])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
