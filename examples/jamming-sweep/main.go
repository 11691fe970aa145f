// Jamming sweep: two independent views of JR-SND's jamming resilience.
//
//  1. Chip level — a real DSSS frame (N=512 chips, τ=0.15, Reed–Solomon
//     μ=1) is jammed with the correct spread code over a growing fraction
//     of its airtime; decoding survives below the μ/(1+μ) = 50% budget and
//     dies above it, validating the message-level jamming model.
//  2. Network level — the full Monte-Carlo campaign sweeps the number of
//     compromised nodes q and reports the discovery probabilities of
//     D-NDP, M-NDP and JR-SND against the Theorem 1/3 predictions.
package main

import (
	"fmt"
	"os"

	jrsnd "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jamming-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("--- chip-level: frame decode vs same-code jam fraction ---")
	fig, err := jrsnd.RunExperiment("dsss", jrsnd.SweepConfig{Seed: 1, Runs: 30})
	if err != nil {
		return err
	}
	if err := jrsnd.PrintFigure(os.Stdout, fig); err != nil {
		return err
	}

	fmt.Println("\n--- network-level: discovery probability vs compromised nodes q ---")
	params := jrsnd.DefaultParams()
	params.N = 400
	params.L = 20
	params.FieldWidth, params.FieldHeight = 2250, 2250 // keep density ≈ paper's
	fmt.Println("q    P̂_D(sim)  P̂_D(thy)  P̂_M(sim)  JR-SND(sim)")
	for _, q := range []int{0, 4, 8, 12, 16, 20} {
		p := params
		p.Q = q
		m, err := jrsnd.MeasurePoint(jrsnd.PointConfig{
			Params: p,
			Jammer: jrsnd.CampaignJamReactive,
			Runs:   10,
			Seed:   1,
		})
		if err != nil {
			return err
		}
		lower, _ := jrsnd.DNDPBounds(p)
		fmt.Printf("%-3d  %-9.3f  %-9.3f  %-9.3f  %.3f\n", q, m.PD, lower, m.PM, m.PHat)
	}
	fmt.Println("\nshape check: both curves fall with q; JR-SND stays above D-NDP thanks to M-NDP.")
	return nil
}
