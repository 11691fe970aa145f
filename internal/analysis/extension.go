package analysis

import "math"

// Extensions beyond the paper's evaluation, implementing the future work
// it names: "The extension of JR-SND to an arbitrary number of antennas is
// left as future work" (§IV-A) and "MANET nodes may dynamically adjust ν
// to achieve satisfactory neighbor-discovery probabilities" (§VI-B).

// DNDPLatencyAntennas generalizes Theorem 2 to a receiver with k parallel
// de-spreading chains (k receive antennas/correlator banks). The
// buffer-processing time t_p divides by k, since the m-code correlation
// scan parallelizes across chains:
//
//	T̄_D(k) ≈ ρ·m(3m+4)·N²·l_h/(2k) + 2N·l_f/R + 2t_key.
//
// k = 1 reduces to Theorem 2 (the paper's single receive antenna).
func DNDPLatencyAntennas(p Params, k int) float64 {
	if k < 1 {
		k = 1
	}
	n2 := float64(p.ChipLen) * float64(p.ChipLen)
	identify := p.Rho * float64(p.M) * float64(3*p.M+4) * n2 * p.HelloBits() / (2 * float64(k))
	authTx := 2 * float64(p.ChipLen) * p.AuthBits() / p.ChipRate
	return identify + authTx + 2*p.TKey
}

// HelloRoundsAntennas generalizes the r = ⌈(λ+1)(m+1)/m⌉ broadcast budget:
// with k parallel receive chains the effective λ shrinks k-fold, so the
// initiator needs fewer repetitions to guarantee a buffered copy.
func HelloRoundsAntennas(p Params, k int) int {
	if k < 1 {
		k = 1
	}
	lambda := p.Lambda() / float64(k)
	return int(math.Ceil((lambda + 1) * float64(p.M+1) / float64(p.M)))
}

// AdaptiveNu returns the smallest hop bound ν in [1, maxNu] whose
// predicted combined probability P̂ = P̂_D + (1−P̂_D)·P̂_M(ν) reaches
// target, plus that prediction. P̂_M(ν) extends the Theorem 3 recurrence:
// each extra hop multiplies the candidate relay pool, modeled by
// iterating the two-hop bound on the residual failure probability. When
// even maxNu falls short it returns maxNu and the achieved value.
func AdaptiveNu(p Params, target float64, maxNu int) (nu int, predicted float64) {
	if maxNu < 1 {
		maxNu = 1
	}
	pd := DNDPReactive(p)
	g := p.AvgDegree()
	for nu = 1; nu <= maxNu; nu++ {
		pm := MNDPBoundNu(pd, g, nu)
		predicted = pd + (1-pd)*pm
		if predicted >= target {
			return nu, predicted
		}
	}
	return maxNu, predicted
}

// OptimalL returns the sharing parameter l in [2, maxL] that maximizes the
// reactive-jamming D-NDP probability P̂− at the given parameters, together
// with that probability — the quantitative version of the Fig. 3(a)
// tradeoff (larger l shares more codes but exposes each one to more
// captures). At the Table I defaults the peak sits near l ≈ 100.
func OptimalL(p Params, maxL int) (bestL int, bestP float64) {
	if maxL > p.N {
		maxL = p.N
	}
	bestL = 2
	for l := 2; l <= maxL; l++ {
		trial := p
		trial.L = l
		pd := DNDPReactive(trial)
		if pd > bestP {
			bestP = pd
			bestL = l
		}
	}
	return bestL, bestP
}

// MNDPBoundNu extends the Theorem 3 lower bound beyond ν = 2 by iterating
// it: a ν-hop discovery is a 2-hop discovery where each "edge" is itself
// discoverable with the (ν−1)-hop probability. ν = 1 degenerates to 0 (no
// intermediate hop); ν = 2 is exactly Theorem 3. The paper evaluates ν ≥ 3
// only by simulation ("we have not been able to give a closed-form
// solution to P̂_M for ν ≥ 3"); this recurrence is our analytical
// stand-in. Beyond ν = 2 it is *optimistic* — the independence assumption
// double-counts overlapping relay neighborhoods — so treat it as an upper
// estimate and the Fig. 5(a) campaign as ground truth.
func MNDPBoundNu(pd, g float64, nu int) float64 {
	if nu <= 1 {
		return 0 // M-NDP needs at least one intermediate hop
	}
	edge := pd
	var pm float64
	for h := 2; h <= nu; h++ {
		pm = MNDPLowerBound(edge, g)
		// The edge reliability for the next level counts either a direct
		// or an indirect discovery.
		edge = pd + (1-pd)*pm
	}
	return pm
}
