package dsss

import (
	"math/rand"
	"testing"

	"repro/internal/chips"
)

// The //jrsnd:hotpath kernels promise an allocation-free steady state;
// these tests pin that promise at runtime with testing.AllocsPerRun,
// complementing the static hotpathalloc analyzer and the gcflags=-m
// cross-check in internal/lint.

func hotpathFixture(t *testing.T) (buf []int32, code chips.Sequence) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	code = chips.NewRandom(rng, testChipLen)
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	sig, err := Spread(msg, code)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sig.Len() + 2*testChipLen)
	if err != nil {
		t.Fatal(err)
	}
	ch.Add(sig, testChipLen/2)
	return ch.Samples(), code
}

func TestDespreadIntoMatchesDespreadAt(t *testing.T) {
	buf, code := hotpathFixture(t)
	const numBits = 8
	wantBits, wantErasures, err := DespreadAt(buf, testChipLen/2, code, testTau, numBits)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]byte, numBits)
	erasures := make([]int, numBits)
	count, err := DespreadInto(bits, erasures, buf, testChipLen/2, code, testTau)
	if err != nil {
		t.Fatal(err)
	}
	if string(bits) != string(wantBits) {
		t.Fatalf("bits = %v, want %v", bits, wantBits)
	}
	if count != len(wantErasures) {
		t.Fatalf("erasure count = %d, want %d", count, len(wantErasures))
	}
	for i := 0; i < count; i++ {
		if erasures[i] != wantErasures[i] {
			t.Fatalf("erasures[%d] = %d, want %d", i, erasures[i], wantErasures[i])
		}
	}
}

func TestDespreadIntoSentinels(t *testing.T) {
	buf, code := hotpathFixture(t)
	bits := make([]byte, 8)
	erasures := make([]int, 8)
	if _, err := DespreadInto(bits, erasures, buf, 0, chips.Sequence{}, testTau); err != ErrEmptyCode {
		t.Fatalf("empty code: err = %v, want ErrEmptyCode", err)
	}
	if _, err := DespreadInto(bits, erasures, buf, 0, code, 1.5); err != ErrBadThreshold {
		t.Fatalf("bad tau: err = %v, want ErrBadThreshold", err)
	}
	if _, err := DespreadInto(bits, erasures, buf, len(buf), code, testTau); err != ErrWindowRange {
		t.Fatalf("bad window: err = %v, want ErrWindowRange", err)
	}
	if _, err := DespreadInto(bits, erasures[:4], buf, 0, code, testTau); err != ErrErasureRoom {
		t.Fatalf("short scratch: err = %v, want ErrErasureRoom", err)
	}
}

func TestDespreadIntoAllocFree(t *testing.T) {
	buf, code := hotpathFixture(t)
	bits := make([]byte, 8)
	erasures := make([]int, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DespreadInto(bits, erasures, buf, testChipLen/2, code, testTau); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DespreadInto allocates %v objects per run, want 0", allocs)
	}
}

func TestScanForSignalAllocFree(t *testing.T) {
	buf, code := hotpathFixture(t)
	rng := rand.New(rand.NewSource(11))
	codes := []chips.Sequence{chips.NewRandom(rng, testChipLen), code}
	last := len(buf) - 8*testChipLen
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := scanForSignal(buf, codes, testTau, last); !ok {
			t.Fatal("scan lost the planted signal")
		}
	})
	if allocs != 0 {
		t.Fatalf("scanForSignal allocates %v objects per run, want 0", allocs)
	}
}

func TestChannelAddAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	signal := chips.NewRandom(rng, 3*testChipLen+17)
	ch, err := NewChannel(3 * testChipLen)
	if err != nil {
		t.Fatal(err)
	}
	add := testing.AllocsPerRun(100, func() { ch.Add(signal, -5) })
	inverted := testing.AllocsPerRun(100, func() { ch.AddInverted(signal, 37) })
	if add != 0 || inverted != 0 {
		t.Fatalf("Add allocates %v and AddInverted %v objects per run, want 0", add, inverted)
	}
}
