package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/chips"
	"repro/internal/dsss"
	"repro/internal/experiment"
)

// chipChannel is the chip-level workload: the ext-noise figure
// superimposes up to 1024 foreign transmissions on every frame
// (dominated by dsss.Channel.Add), and the dsss figure jams one burst
// with the frame's own code, so despreading and Reed–Solomon decoding
// take a larger share. The field and codepool layers do no work here.
//
// Both figures run at one trial per point. The dsss figure runs dsssRuns
// times per pass, each at its own seed, so each run is a short timed
// unit of its own.
type chipChannel struct {
	dsssRuns int
	frame    *dsss.Frame
}

// Validation constants mirrored from internal/experiment (extra.go).
var (
	noiseInterferers = []float64{0, 4, 16, 64, 128, 256, 512, 1024}
	dsssFractions    = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.8}
)

const (
	noiseMsgLen = 12
	dsssMsgLen  = 25
)

func (c *chipChannel) setup(seed int64) error {
	if c.dsssRuns == 0 {
		c.dsssRuns = 8
	}
	p := analysis.Defaults()
	frame, err := dsss.NewFrame(p.Mu, p.Tau)
	if err != nil {
		return err
	}
	c.frame = frame
	// One trial per jam fraction warms the codec and the heap.
	_, err = experiment.DSSSValidation(seed, 1)
	return err
}

func (c *chipChannel) close() {}

// dsssSeedStride separates the seeds of a pass's dsss figure runs.
const dsssSeedStride = 7919

// dsssSeed is the seed of the j-th dsss figure run of a pass.
func dsssSeed(seed int64, j int) int64 { return seed + int64(j)*dsssSeedStride }

func (c *chipChannel) pass(_ context.Context, seed int64, clk *clock) (passResult, error) {
	var noise experiment.Figure
	err := clk.time(len(noiseInterferers), func() (err error) {
		noise, err = experiment.InterferenceValidation(seed, 1)
		return err
	})
	if err != nil {
		return passResult{}, err
	}
	pr := passResult{out: figureOutputs(noise), ops: len(noiseInterferers) + c.dsssRuns*len(dsssFractions)}
	for j := 0; j < c.dsssRuns; j++ {
		var jam experiment.Figure
		err := clk.time(len(dsssFractions), func() (err error) {
			jam, err = experiment.DSSSValidation(dsssSeed(seed, j), 1)
			return err
		})
		if err != nil {
			return passResult{}, err
		}
		jam.ID = fmt.Sprintf("dsss#%d", j)
		pr.out = append(pr.out, figureOutputs(jam)...)
	}
	return pr, nil
}

const successLabel = "decode success rate"

func (c *chipChannel) replay(ctx context.Context, seed int64, tr *tracer, parent *span) (outputs, error) {
	p := analysis.Defaults()

	// ext-noise: k independent same-length foreign transmissions on top
	// of the frame, fully overlapping.
	sp := tr.start(parent, "experiment.validation")
	rng := rand.New(rand.NewSource(seed))
	noise := experiment.Series{Label: successLabel, X: noiseInterferers, Y: make([]float64, len(noiseInterferers))}
	sigLen := c.frame.AirtimeChips(noiseMsgLen, p.ChipLen)
	for ki, k := range noiseInterferers {
		if err := ctx.Err(); err != nil {
			sp.end()
			return nil, err
		}
		s := tr.start(sp, "chips.new_random")
		code := chips.NewRandom(rng, p.ChipLen)
		msg := make([]byte, noiseMsgLen)
		rng.Read(msg)
		foreign := make([]chips.Sequence, int(k))
		for i := range foreign {
			foreign[i] = chips.NewRandom(rng, sigLen)
		}
		s.end()
		good, err := c.trial(tr, sp, code, msg, func(ch *dsss.Channel, _ chips.Sequence) {
			for _, f := range foreign {
				ch.Add(f, 0)
			}
			tr.count("dsss.channel_add_calls", float64(len(foreign)))
			tr.count("dsss.channel_add_chips", float64(len(foreign)*sigLen))
		})
		if err != nil {
			sp.end()
			return nil, err
		}
		noise.Y[ki] = successRate(good)
	}
	sp.end()
	out := figureOutputs(experiment.Figure{ID: "ext-noise", Series: []experiment.Series{noise}})

	// dsss: one contiguous burst of the given fraction, jammed with the
	// frame's own code inverted.
	for j := 0; j < c.dsssRuns; j++ {
		jam, err := c.replayJam(tr, parent, dsssSeed(seed, j))
		if err != nil {
			return nil, err
		}
		out = append(out, figureOutputs(experiment.Figure{ID: fmt.Sprintf("dsss#%d", j), Series: []experiment.Series{jam}})...)
	}
	return out, nil
}

// replayJam replays one experiment.DSSSValidation(seed, 1) call.
func (c *chipChannel) replayJam(tr *tracer, parent *span, seed int64) (experiment.Series, error) {
	p := analysis.Defaults()
	sp := tr.start(parent, "experiment.validation")
	defer sp.end()
	rng := rand.New(rand.NewSource(seed))
	jam := experiment.Series{Label: successLabel, X: dsssFractions, Y: make([]float64, len(dsssFractions))}
	for fi, frac := range dsssFractions {
		s := tr.start(sp, "chips.new_random")
		code := chips.NewRandom(rng, p.ChipLen)
		msg := make([]byte, dsssMsgLen)
		rng.Read(msg)
		s.end()
		good, err := c.trial(tr, sp, code, msg, func(ch *dsss.Channel, sig chips.Sequence) {
			jamChips := int(frac * float64(sig.Len()))
			if jamChips <= 0 {
				return
			}
			start := rng.Intn(sig.Len() - jamChips + 1)
			ch.AddInverted(sig.Slice(start, start+jamChips), start)
			tr.count("dsss.channel_add_calls", 1)
			tr.count("dsss.channel_add_chips", float64(jamChips))
		})
		if err != nil {
			return experiment.Series{}, err
		}
		jam.Y[fi] = successRate(good)
	}
	return jam, nil
}

// successRate is a one-trial point's decode success rate.
func successRate(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// trial is one frame trial: transmit, superimpose the frame and its
// interference on a fresh channel, receive. The verdict counts as an
// output either way; a decode failure is not an error.
func (c *chipChannel) trial(tr *tracer, parent *span, code chips.Sequence, msg []byte, interfere func(ch *dsss.Channel, sig chips.Sequence)) (bool, error) {
	s := tr.start(parent, "dsss.transmit")
	sig, err := c.frame.Transmit(msg, code)
	s.end()
	if err != nil {
		return false, err
	}
	s = tr.start(parent, "dsss.channel_add")
	ch, err := dsss.NewChannel(sig.Len())
	if err == nil {
		ch.Add(sig, 0)
		interfere(ch, sig)
	}
	s.end()
	if err != nil {
		return false, err
	}
	tr.count("dsss.channel_add_calls", 1)
	tr.count("dsss.channel_add_chips", float64(sig.Len()))
	s = tr.start(parent, "dsss.receive")
	got, err := c.frame.Receive(ch.Samples(), 0, code, len(msg))
	s.end()
	ok := err == nil && string(got) == string(msg)
	tr.count("dsss.receive_calls", 1)
	if ok {
		tr.count("dsss.receive_ok", 1)
	}
	return ok, nil
}

// diverge names the first diverging point. The library draws every
// trial of a figure from one stream, so a single point cannot be re-run
// on its own; the success verdict comes from dsss.receive over the
// chips.new_random, dsss.transmit and dsss.channel_add outputs.
func (c *chipChannel) diverge(_ int64, key string) string {
	return fmt.Sprintf("dsss.receive verdict (inputs from chips.new_random, dsss.transmit, dsss.channel_add) at %s", key)
}
