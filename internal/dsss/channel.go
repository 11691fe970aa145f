package dsss

import (
	"fmt"

	"repro/internal/chips"
)

// Channel is a chip-level shared-medium model: every concurrent signal
// (legitimate transmission or jamming) contributes ±1 per chip, and the
// receiver samples the signed sum. This is the superposition abstraction
// under which the paper's correlation arguments operate: a signal spread
// with an independent code adds ≈N(0, k/N) noise to the correlation with
// the target code, negligible for N = 512, while a jamming signal using
// the *same* code aligned to the transmission shifts the correlation by
// ±1 and can flip or erase bits.
type Channel struct {
	buf []int32
}

// NewChannel creates a channel timeline of the given length in chips.
func NewChannel(lengthChips int) (*Channel, error) {
	if lengthChips <= 0 {
		return nil, fmt.Errorf("dsss: channel length %d must be positive", lengthChips)
	}
	return &Channel{buf: make([]int32, lengthChips)}, nil
}

// Len returns the timeline length in chips.
func (c *Channel) Len() int { return len(c.buf) }

// Add superimposes a signal starting at chip offset off. Portions falling
// outside the timeline are clipped.
//
//jrsnd:hotpath
func (c *Channel) Add(signal chips.Sequence, off int) {
	c.add(signal, off, false)
}

// AddInverted superimposes the chip-wise inverse of signal at off — the
// strongest jamming waveform against a known transmission, driving the
// correlation toward −1.
//
//jrsnd:hotpath
func (c *Channel) AddInverted(signal chips.Sequence, off int) {
	c.add(signal, off, true)
}

// add clips [off, off+signal.Len()) to the timeline once, then adds the
// surviving chips word by word, negated when neg is set.
func (c *Channel) add(signal chips.Sequence, off int, neg bool) {
	lo, hi := 0, signal.Len()
	if off < 0 {
		lo = -off
	}
	if room := len(c.buf) - off; hi > room {
		hi = room
	}
	if lo >= hi {
		return
	}
	signal.AddSigns(c.buf[off+lo:off+hi], lo, neg)
}

// Samples returns the receiver's view of the channel (the live buffer; the
// caller must not modify it).
func (c *Channel) Samples() []int32 { return c.buf }

// SyncResult describes a message located by sliding-window synchronization.
type SyncResult struct {
	CodeIndex int // which of the candidate codes matched
	Offset    int // chip offset of the first message bit
	FirstCorr float64
}

// Synchronize implements the receiver algorithm of §V-B: scan every chip
// offset of the buffered signal, correlating the N-chip window against each
// candidate spread code, and lock onto the earliest offset whose
// correlation magnitude reaches τ. The caller then de-spreads the rest of
// the message from that offset with the matched code (DespreadAt).
func Synchronize(buf []int32, codes []chips.Sequence, tau float64, msgBits int) (SyncResult, error) {
	if len(codes) == 0 {
		return SyncResult{}, fmt.Errorf("dsss: no candidate codes")
	}
	if tau <= 0 || tau >= 1 {
		return SyncResult{}, fmt.Errorf("dsss: threshold τ=%v must be in (0,1)", tau)
	}
	n := codes[0].Len()
	for _, c := range codes {
		if c.Len() != n {
			return SyncResult{}, fmt.Errorf("dsss: candidate codes have mixed lengths")
		}
	}
	// Only offsets that leave room for the whole message can host its
	// start (footnote 1 of the paper).
	last := len(buf) - msgBits*n
	if res, ok := scanForSignal(buf, codes, tau, last); ok {
		return res, nil
	}
	return SyncResult{}, ErrNoSignal
}

// scanForSignal is the sliding-window correlation kernel: every chip
// offset in [0, last] is correlated against every candidate code until
// one reaches the threshold. This inner loop runs len(buf)×len(codes)
// correlations per synchronization attempt and must stay allocation-free.
//
//jrsnd:hotpath
func scanForSignal(buf []int32, codes []chips.Sequence, tau float64, last int) (SyncResult, bool) {
	for off := 0; off <= last; off++ {
		for ci := range codes {
			corr := chips.CorrelateAt(codes[ci], buf, off)
			if corr >= tau || corr <= -tau {
				return SyncResult{CodeIndex: ci, Offset: off, FirstCorr: corr}, true
			}
		}
	}
	return SyncResult{}, false
}
