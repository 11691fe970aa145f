package chips

import "fmt"

// Gold codes — the classical DSSS spreading-code family with provably
// bounded cross-correlation, generated from a preferred pair of maximal-
// length LFSR sequences. The paper uses unstructured pseudorandom codes
// (whose cross-correlation is only statistically near zero); Gold codes
// are the engineering alternative a real DSSS radio would ship, and the
// package provides them so the chip-level experiments can quantify the
// difference.

// MSequence generates a maximal-length sequence from a Fibonacci LFSR with
// the given feedback taps (tap k means the polynomial term x^k; the
// highest tap sets the register degree). seed must be nonzero in the low
// `degree` bits. The period is 2^degree − 1 when the polynomial is
// primitive.
func MSequence(taps []int, seed uint64) (Sequence, error) {
	if len(taps) == 0 {
		return Sequence{}, fmt.Errorf("chips: no LFSR taps")
	}
	degree := 0
	for _, t := range taps {
		if t < 1 || t > 63 {
			return Sequence{}, fmt.Errorf("chips: tap %d out of range [1,63]", t)
		}
		if t > degree {
			degree = t
		}
	}
	stateMask := (uint64(1) << uint(degree)) - 1
	state := seed & stateMask
	if state == 0 {
		return Sequence{}, fmt.Errorf("chips: LFSR seed must be nonzero in the low %d bits", degree)
	}
	// Galois form: on a 1 output, xor in the feedback mask (one bit per
	// polynomial tap, including the degree term).
	var fbMask uint64
	for _, t := range taps {
		fbMask |= 1 << uint(t-1)
	}
	n := int(stateMask) // period 2^degree − 1
	out := New(n)
	for i := 0; i < n; i++ {
		bit := state & 1
		if bit != 0 {
			out.set(i, true)
		}
		state >>= 1
		if bit != 0 {
			state ^= fbMask
		}
	}
	return out, nil
}

// goldPair is a preferred pair of primitive polynomials (as tap lists) for
// one register degree.
type goldPair struct {
	a, b []int
}

// preferredPairs lists known preferred pairs. Preferred pairs do not exist
// for degrees divisible by 4.
var preferredPairs = map[int]goldPair{
	5:  {a: []int{5, 2}, b: []int{5, 4, 3, 2}},
	6:  {a: []int{6, 1}, b: []int{6, 5, 2, 1}},
	7:  {a: []int{7, 3}, b: []int{7, 3, 2, 1}},
	9:  {a: []int{9, 4}, b: []int{9, 6, 4, 3}},
	10: {a: []int{10, 3}, b: []int{10, 8, 3, 2}},
}

// GoldDegrees returns the register degrees this package has preferred
// pairs for.
func GoldDegrees() []int {
	return []int{5, 6, 7, 9, 10}
}

// GoldBound returns the Gold cross-correlation bound t(k)/N: for degree k,
// t(k) = 2^⌊(k+2)/2⌋ + 1 and N = 2^k − 1. Every pair of distinct codes in
// the family correlates within ±t(k)/N at zero lag.
func GoldBound(degree int) float64 {
	t := float64(int(1)<<uint((degree+2)/2)) + 1
	n := float64(int(1)<<uint(degree)) - 1
	return t / n
}

// GoldFamily generates up to count Gold codes of length 2^degree − 1 from
// the stored preferred pair: the two m-sequences themselves plus the XOR
// of the first with every cyclic shift of the second (family size
// 2^degree + 1).
func GoldFamily(degree, count int) ([]Sequence, error) {
	pair, ok := preferredPairs[degree]
	if !ok {
		return nil, fmt.Errorf("chips: no preferred pair for degree %d (have %v)", degree, GoldDegrees())
	}
	u, err := MSequence(pair.a, 1)
	if err != nil {
		return nil, err
	}
	v, err := MSequence(pair.b, 1)
	if err != nil {
		return nil, err
	}
	n := u.Len()
	maxCount := n + 2
	if count < 1 || count > maxCount {
		return nil, fmt.Errorf("chips: count %d out of [1, %d]", count, maxCount)
	}
	family := make([]Sequence, 0, count)
	family = append(family, u)
	if count > 1 {
		family = append(family, v)
	}
	for shift := 0; len(family) < count; shift++ {
		shifted := rotate(v, shift)
		code, err := u.Xor(shifted)
		if err != nil {
			return nil, err
		}
		family = append(family, code)
	}
	return family, nil
}

// WalshFamily generates the first count rows of the 2^degree-order
// Walsh–Hadamard matrix as chip sequences: a perfectly orthogonal code
// family (cross-correlation exactly 0 at chip alignment). Orthogonal codes
// are what synchronized cellular CDMA downlinks use; they lose their
// orthogonality under misalignment, which is why asynchronous MANET
// neighbor discovery uses pseudorandom or Gold codes instead — the
// comparison the chip-level tests quantify.
func WalshFamily(degree, count int) ([]Sequence, error) {
	if degree < 1 || degree > 16 {
		return nil, fmt.Errorf("chips: Walsh degree %d out of [1,16]", degree)
	}
	n := 1 << uint(degree)
	if count < 1 || count > n {
		return nil, fmt.Errorf("chips: count %d out of [1, %d]", count, n)
	}
	family := make([]Sequence, count)
	for row := 0; row < count; row++ {
		s := New(n)
		for col := 0; col < n; col++ {
			// H[row][col] = (−1)^popcount(row AND col): +1 when the
			// parity is even.
			if parity(uint(row)&uint(col)) == 0 {
				s.set(col, true)
			}
		}
		family[row] = s
	}
	return family, nil
}

func parity(v uint) int {
	p := 0
	for v != 0 {
		p ^= 1
		v &= v - 1
	}
	return p
}

// rotate returns s cyclically rotated left by k chips.
func rotate(s Sequence, k int) Sequence {
	n := s.Len()
	if n == 0 {
		return s
	}
	k %= n
	if k == 0 {
		return s.Clone()
	}
	return Concat(s.Slice(k, n), s.Slice(0, k))
}
