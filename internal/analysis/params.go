// Package analysis implements the closed-form performance model of §VI-A:
// the code pre-distribution statistics (Eqs. 1–2), the D-NDP discovery
// probability bounds (Theorem 1), the D-NDP latency (Theorem 2), the M-NDP
// discovery probability bound (Theorem 3), and the M-NDP latency
// (Theorem 4), plus the derived protocol constants (λ, r, t_h, t_b, t_p).
package analysis

import (
	"fmt"
	"math"
)

// Params is the full evaluation parameter set of Table I. All lengths are
// in bits, times in seconds, rates in bits per second, distances in meters.
type Params struct {
	N int // number of nodes (n)
	M int // spread codes per node (m)
	L int // nodes sharing each code (l)
	Q int // compromised nodes (q)

	ChipLen  int     // spread-code length N in chips
	ChipRate float64 // transmission speed R (chips/s)
	Rho      float64 // ρ: seconds per bit to correlate two sequences
	Mu       float64 // μ: ECC expansion factor
	Nu       int     // ν: M-NDP hop bound
	Z        int     // z: parallel jamming signals
	Tau      float64 // τ: de-spreading correlation threshold

	LenType  int // l_t: message type identifier bits
	LenID    int // l_id: node ID bits
	LenNonce int // l_n: nonce bits
	LenMAC   int // l_mac (l_f in Table I): MAC bits
	LenNu    int // l_ν: hop-bound field bits
	LenSig   int // l_sig: signature bits

	TKey float64 // t_key: ID-based shared-key computation time
	TSig float64 // t_sig: signing time
	TVer float64 // t_ver: signature verification time

	FieldWidth  float64 // deployment field width (m)
	FieldHeight float64 // deployment field height (m)
	Range       float64 // transmission radius a (m)

	Gamma int // γ: local revocation threshold (§V-D)
}

// Defaults returns Table I's default parameter values. z and γ are not
// listed in Table I; see DESIGN.md §2 for the chosen defaults.
func Defaults() Params {
	return Params{
		N:        2000,
		M:        100,
		L:        40,
		Q:        20,
		ChipLen:  512,
		ChipRate: 22e6,
		Rho:      1e-11,
		Mu:       1,
		Nu:       2,
		Z:        10,
		Tau:      0.15,
		LenType:  5,
		LenID:    16,
		LenNonce: 20,
		LenMAC:   160,
		LenNu:    4,
		LenSig:   672,
		TKey:     11e-3,
		TSig:     5.7e-3,
		TVer:     35.5e-3,

		FieldWidth:  5000,
		FieldHeight: 5000,
		Range:       300,

		Gamma: 5,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("analysis: n=%d must be >= 2", p.N)
	case p.M < 1:
		return fmt.Errorf("analysis: m=%d must be >= 1", p.M)
	case p.L < 2 || p.L > p.N:
		return fmt.Errorf("analysis: l=%d must be in [2, n=%d]", p.L, p.N)
	case p.Q < 0 || p.Q > p.N:
		return fmt.Errorf("analysis: q=%d must be in [0, n=%d]", p.Q, p.N)
	case p.ChipLen < 1:
		return fmt.Errorf("analysis: chip length %d must be >= 1", p.ChipLen)
	case p.ChipRate <= 0:
		return fmt.Errorf("analysis: chip rate %v must be positive", p.ChipRate)
	case p.Rho <= 0:
		return fmt.Errorf("analysis: ρ=%v must be positive", p.Rho)
	case p.Mu <= 0:
		return fmt.Errorf("analysis: μ=%v must be positive", p.Mu)
	case p.Nu < 1:
		return fmt.Errorf("analysis: ν=%d must be >= 1", p.Nu)
	case p.Z < 0:
		return fmt.Errorf("analysis: z=%d must be >= 0", p.Z)
	case p.LenType < 1 || p.LenID < 1 || p.LenNonce < 1 || p.LenMAC < 1 || p.LenSig < 1:
		return fmt.Errorf("analysis: message field lengths must be >= 1")
	case p.TKey <= 0 || p.TSig <= 0 || p.TVer <= 0:
		return fmt.Errorf("analysis: computation times t_key, t_sig, t_ver must be positive")
	case p.Range <= 0 || p.FieldWidth <= 0 || p.FieldHeight <= 0:
		return fmt.Errorf("analysis: geometry must be positive")
	}
	return nil
}

// S returns the pool size s = w·m with w = ⌈n/l⌉.
func (p Params) S() int { return ((p.N + p.L - 1) / p.L) * p.M }

// HelloBits returns l_h = (1+μ)(l_t + l_id), the ECC-coded HELLO length.
func (p Params) HelloBits() float64 { return (1 + p.Mu) * float64(p.LenType+p.LenID) }

// AuthBits returns l_f = (1+μ)(l_id + l_n + l_mac), the ECC-coded length of
// each mutual-authentication message.
func (p Params) AuthBits() float64 {
	return (1 + p.Mu) * float64(p.LenID+p.LenNonce+p.LenMAC)
}

// THello returns t_h = l_h·N/R, the airtime of one spread HELLO.
func (p Params) THello() float64 {
	return p.HelloBits() * float64(p.ChipLen) / p.ChipRate
}

// TBuffer returns t_b = (m+1)·t_h, the buffering duration guaranteeing a
// complete HELLO copy.
func (p Params) TBuffer() float64 { return float64(p.M+1) * p.THello() }

// Lambda returns λ = t_p/t_b = ρ·N·m·R, the processing-to-buffering ratio.
func (p Params) Lambda() float64 {
	return p.Rho * float64(p.ChipLen) * float64(p.M) * p.ChipRate
}

// TProcess returns t_p = λ·t_b, the time to scan one buffer against all m
// codes.
func (p Params) TProcess() float64 { return p.Lambda() * p.TBuffer() }

// HelloRounds returns r = ⌈(λ+1)(m+1)/m⌉, the number of HELLO rounds that
// guarantee the receiver buffers a complete copy (§V-B).
func (p Params) HelloRounds() int {
	return int(math.Ceil((p.Lambda() + 1) * float64(p.M+1) / float64(p.M)))
}

// AvgDegree returns the expected physical-neighbor count g = n·π·a²/Area
// (ignoring border effects).
func (p Params) AvgDegree() float64 {
	return float64(p.N) * math.Pi * p.Range * p.Range / (p.FieldWidth * p.FieldHeight)
}
