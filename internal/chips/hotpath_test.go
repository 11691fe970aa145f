package chips

import (
	"math/rand"
	"testing"
)

// The correlation and superposition kernels are //jrsnd:hotpath roots:
// the DSSS receiver evaluates correlation once per (offset, code)
// candidate and the channel adds every signal through AddSigns, so they
// must not allocate. The static hotpathalloc analyzer enforces this at lint time;
// these tests pin it at runtime.

func TestCorrelateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := NewRandom(rng, 512)
	v := NewRandom(rng, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Correlate(u, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Correlate allocates %v objects per run, want 0", allocs)
	}
}

func TestCorrelateAtAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	code := NewRandom(rng, 512)
	buf := make([]int32, 4096)
	for i := range buf {
		buf[i] = int32(rng.Intn(7) - 3)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = CorrelateAt(code, buf, 128)
	})
	if allocs != 0 {
		t.Fatalf("CorrelateAt allocates %v objects per run, want 0", allocs)
	}
}

func TestAddSignsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewRandom(rng, 1000)
	dst := make([]int32, 900)
	for _, neg := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			s.AddSigns(dst, 37, neg)
		})
		if allocs != 0 {
			t.Fatalf("AddSigns(neg=%v) allocates %v objects per run, want 0", neg, allocs)
		}
	}
}
