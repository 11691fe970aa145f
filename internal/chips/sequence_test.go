package chips

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAllMinusOne(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.At(i) != -1 {
			t.Fatalf("At(%d) = %d, want -1", i, s.At(i))
		}
	}
	if s.Weight() != 0 {
		t.Fatalf("Weight = %d, want 0", s.Weight())
	}
}

func TestFromBitsRoundTrip(t *testing.T) {
	in := []byte{1, 0, 0, 1, 1, 1, 0, 1, 0}
	s := FromBits(in)
	got := s.Bits()
	if len(got) != len(in) {
		t.Fatalf("len = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("bit %d = %d, want %d", i, got[i], in[i])
		}
	}
}

func TestFromSigns(t *testing.T) {
	in := []int8{1, -1, 1, 1, -1}
	s := FromSigns(in)
	for i, want := range in {
		if s.At(i) != want {
			t.Fatalf("At(%d) = %d, want %d", i, s.At(i), want)
		}
	}
}

func TestSelfCorrelationIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 512, 1000} {
		s := NewRandom(rng, n)
		c, err := Correlate(s, s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if c != 1 {
			t.Errorf("n=%d: self correlation = %v, want 1", n, c)
		}
	}
}

func TestInverseCorrelationIsMinusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewRandom(rng, 512)
	c, err := Correlate(s, s.Invert())
	if err != nil {
		t.Fatal(err)
	}
	if c != -1 {
		t.Errorf("correlation with inverse = %v, want -1", c)
	}
}

func TestIndependentCodesNearZeroCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, trials = 512, 200
	var sum, sumAbs float64
	for i := 0; i < trials; i++ {
		u := NewRandom(rng, n)
		v := NewRandom(rng, n)
		c, err := Correlate(u, v)
		if err != nil {
			t.Fatal(err)
		}
		sum += c
		sumAbs += abs(c)
	}
	// E[corr] = 0, sd per trial = 1/sqrt(512) ≈ 0.044.
	if mean := sum / trials; abs(mean) > 0.02 {
		t.Errorf("mean correlation = %v, want ≈ 0", mean)
	}
	if meanAbs := sumAbs / trials; meanAbs > 0.15 {
		t.Errorf("mean |correlation| = %v, want well below τ=0.15", meanAbs)
	}
}

func TestCorrelateLengthMismatch(t *testing.T) {
	if _, err := Correlate(New(3), New(4)); err != ErrLengthMismatch {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := Hamming(New(3), New(4)); err != ErrLengthMismatch {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := New(3).Xor(New(4)); err != ErrLengthMismatch {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := Derive([]byte("seed"), 512)
	b := Derive([]byte("seed"), 512)
	if !a.Equal(b) {
		t.Fatal("Derive is not deterministic")
	}
	c := Derive([]byte("other"), 512)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical sequences")
	}
	// Derived codes should look balanced.
	w := a.Weight()
	if w < 200 || w > 312 {
		t.Fatalf("Weight = %d, want ≈ 256", w)
	}
}

func TestXorActsAsChipProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := NewRandom(rng, 100)
	v := NewRandom(rng, 100)
	p, err := u.Xor(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if want := u.At(i) * v.At(i); p.At(i) != want {
			t.Fatalf("chip %d: got %d, want %d", i, p.At(i), want)
		}
	}
}

func TestFlipChips(t *testing.T) {
	s := New(10)
	s.FlipChips(0, 5, 9)
	for i := 0; i < 10; i++ {
		want := int8(-1)
		if i == 0 || i == 5 || i == 9 {
			want = 1
		}
		if s.At(i) != want {
			t.Fatalf("At(%d) = %d, want %d", i, s.At(i), want)
		}
	}
	s.FlipChips(5)
	if s.At(5) != -1 {
		t.Fatal("double flip did not restore the chip")
	}
}

func TestCorrelateAtMatchesCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	code := NewRandom(rng, 64)
	signal := NewRandom(rng, 256)
	buf := make([]int32, 256)
	for i := range buf {
		buf[i] = int32(signal.At(i))
	}
	for off := 0; off+64 <= 256; off += 17 {
		want, err := Correlate(code, signal.Slice(off, off+64))
		if err != nil {
			t.Fatal(err)
		}
		if got := CorrelateAt(code, buf, off); abs(got-want) > 1e-12 {
			t.Fatalf("off=%d: CorrelateAt = %v, want %v", off, got, want)
		}
	}
}

func TestHamming(t *testing.T) {
	u := FromBits([]byte{1, 1, 0, 0})
	v := FromBits([]byte{1, 0, 0, 1})
	d, err := Hamming(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
}

func TestSeedStableAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewRandom(rng, 512)
	if s.Seed() != s.Clone().Seed() {
		t.Fatal("Seed not stable under Clone")
	}
	other := NewRandom(rng, 512)
	if s.Seed() == other.Seed() {
		t.Fatal("distinct sequences share a Seed")
	}
}

// Property: spreading a bit with a code and correlating with the same code
// recovers the bit exactly (+1 → corr 1, -1 → corr -1).
func TestPropertySpreadDespreadIdentity(t *testing.T) {
	f := func(seed int64, bit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		code := NewRandom(rng, 512)
		tx := code
		if !bit {
			tx = code.Invert()
		}
		c, err := Correlate(code, tx)
		if err != nil {
			return false
		}
		if bit {
			return c == 1
		}
		return c == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Xor is commutative and self-inverse on equal lengths.
func TestPropertyXorAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := NewRandom(rng, 200)
		v := NewRandom(rng, 200)
		uv, err1 := u.Xor(v)
		vu, err2 := v.Xor(u)
		if err1 != nil || err2 != nil || !uv.Equal(vu) {
			return false
		}
		// (u⊗v)⊗v == u
		back, err := uv.Xor(v)
		return err == nil && back.Equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
