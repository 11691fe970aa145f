package analysis

import (
	"math"
	"testing"
)

func TestDNDPLatencyAntennasReducesToTheorem2(t *testing.T) {
	p := Defaults()
	if got, want := DNDPLatencyAntennas(p, 1), DNDPLatency(p); math.Abs(got-want) > 1e-12 {
		t.Fatalf("k=1: %v, want Theorem 2 value %v", got, want)
	}
	// k <= 0 clamps to 1.
	if got := DNDPLatencyAntennas(p, 0); got != DNDPLatency(p) {
		t.Fatalf("k=0 not clamped: %v", got)
	}
}

func TestDNDPLatencyAntennasScaling(t *testing.T) {
	p := Defaults()
	floor := 2*float64(p.ChipLen)*p.AuthBits()/p.ChipRate + 2*p.TKey
	prev := DNDPLatencyAntennas(p, 1)
	for k := 2; k <= 16; k *= 2 {
		cur := DNDPLatencyAntennas(p, k)
		if cur >= prev {
			t.Fatalf("latency not decreasing at k=%d: %v >= %v", k, cur, prev)
		}
		if cur < floor {
			t.Fatalf("latency %v below the tx+key floor %v", cur, floor)
		}
		// The identification term must divide by exactly k.
		ident1 := DNDPLatencyAntennas(p, 1) - floor
		identK := cur - floor
		if math.Abs(identK-ident1/float64(k)) > 1e-9 {
			t.Fatalf("k=%d: identification term %v, want %v", k, identK, ident1/float64(k))
		}
		prev = cur
	}
}

func TestHelloRoundsAntennas(t *testing.T) {
	p := Defaults()
	if got, want := HelloRoundsAntennas(p, 1), p.HelloRounds(); got != want {
		t.Fatalf("k=1: r=%d, want %d", got, want)
	}
	prev := HelloRoundsAntennas(p, 1)
	for k := 2; k <= 8; k++ {
		cur := HelloRoundsAntennas(p, k)
		if cur > prev {
			t.Fatalf("r not non-increasing at k=%d", k)
		}
		if cur < 2 {
			t.Fatalf("r=%d below the (m+1)/m floor", cur)
		}
		prev = cur
	}
}

func TestMNDPBoundNu(t *testing.T) {
	const g = 22.6
	if MNDPBoundNu(0.5, g, 1) != 0 {
		t.Fatal("ν=1 must give 0 (no intermediate hop)")
	}
	// ν=2 equals Theorem 3 exactly.
	if got, want := MNDPBoundNu(0.3, g, 2), MNDPLowerBound(0.3, g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ν=2: %v, want Theorem 3 value %v", got, want)
	}
	// Monotone non-decreasing in ν.
	prev := 0.0
	for nu := 2; nu <= 8; nu++ {
		cur := MNDPBoundNu(0.2, g, nu)
		if cur < prev-1e-12 || cur > 1 {
			t.Fatalf("bound not monotone at ν=%d: %v < %v", nu, cur, prev)
		}
		prev = cur
	}
	// At the paper's stressed point (P̂_D≈0.2) the recurrence must reach
	// >0.9 within the ν range the paper explores.
	if MNDPBoundNu(0.22, g, 6) < 0.9 {
		t.Fatalf("recurrence at ν=6 gives %v, expected > 0.9 per Fig. 5(a)", MNDPBoundNu(0.22, g, 6))
	}
}

func TestOptimalLMatchesFig3aPeak(t *testing.T) {
	p := Defaults()
	bestL, bestP := OptimalL(p, 200)
	// Fig. 3(a): the peak sits near l ≈ 100 at the defaults.
	if bestL < 70 || bestL > 130 {
		t.Fatalf("optimal l = %d, want near 100 (Fig. 3(a) peak)", bestL)
	}
	// The optimum dominates the endpoints.
	lo := p
	lo.L = 5
	hi := p
	hi.L = 200
	if bestP <= DNDPReactive(lo) || bestP <= DNDPReactive(hi) {
		t.Fatalf("optimum %v does not dominate the sweep endpoints", bestP)
	}
	// maxL caps at n.
	small := Defaults()
	small.N = 50
	small.Q = 2
	if l, _ := OptimalL(small, 500); l > 50 {
		t.Fatalf("OptimalL exceeded n: %d", l)
	}
}

func TestAdaptiveNu(t *testing.T) {
	p := Defaults()
	p.Q = 100 // P̂_D ≈ 0.2
	// A trivial target is met at ν=1 (D-NDP alone).
	nu, pred := AdaptiveNu(p, 0.1, 8)
	if nu != 1 {
		t.Fatalf("trivial target chose ν=%d, want 1", nu)
	}
	if pred < 0.1 {
		t.Fatalf("prediction %v below target", pred)
	}
	// A stretch target requires more hops; monotone in target.
	prevNu := 0
	for _, target := range []float64{0.3, 0.6, 0.9} {
		nu, pred := AdaptiveNu(p, target, 8)
		if nu < prevNu {
			t.Fatalf("chosen ν not monotone in target: %d < %d", nu, prevNu)
		}
		if pred < target && nu < 8 {
			t.Fatalf("target %v: stopped at ν=%d with prediction %v < target", target, nu, pred)
		}
		prevNu = nu
	}
	// An impossible target saturates at maxNu.
	nu, _ = AdaptiveNu(p, 1.1, 5)
	if nu != 5 {
		t.Fatalf("impossible target chose ν=%d, want maxNu=5", nu)
	}
	// maxNu clamps.
	if nu, _ := AdaptiveNu(p, 0.5, 0); nu < 1 {
		t.Fatal("maxNu=0 not clamped")
	}
}
