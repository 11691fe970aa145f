package dsss

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/rs"
)

// Frame is the complete §V-B message path: Reed–Solomon expansion by the
// factor (1+μ) followed by DSSS spreading on transmit, and sliding-window
// de-spreading with erasure-aware RS decoding on receive. A jammer must
// corrupt more than the μ/(1+μ) fraction of the coded symbols — using the
// correct spread code — to destroy a frame.
//
// Every frame carries a two-byte sync word ahead of the payload. RS
// erasure decoding at the full budget has no verification margin (any
// word with exactly `parity` erasures solves), so a scan over garbage
// offsets could otherwise "decode" noise; the sync word rejects such
// miscorrections with probability 1 − 2^{-16}.
type Frame struct {
	codec *rs.Codec
	tau   float64
}

// frameMagic is the two-byte sync word prepended to every frame payload.
var frameMagic = [2]byte{0xA7, 0x5C}

// NewFrame builds a framer with ECC expansion μ and de-spread threshold τ.
func NewFrame(mu, tau float64) (*Frame, error) {
	if tau <= 0 || tau >= 1 {
		return nil, fmt.Errorf("dsss: threshold τ=%v must be in (0,1)", tau)
	}
	codec, err := rs.NewCodec(mu)
	if err != nil {
		return nil, err
	}
	return &Frame{codec: codec, tau: tau}, nil
}

// Codec exposes the underlying RS codec.
func (f *Frame) Codec() *rs.Codec { return f.codec }

// EncodedBits returns the number of coded bits for a msgLen-byte message
// (including the frame sync word).
func (f *Frame) EncodedBits(msgLen int) int {
	return 8 * f.codec.EncodedLen(msgLen+len(frameMagic))
}

// AirtimeChips returns the frame's length on the air in chips for an
// N-chip spread code.
func (f *Frame) AirtimeChips(msgLen, chipLen int) int {
	return f.EncodedBits(msgLen) * chipLen
}

// Transmit RS-encodes msg (with the sync word prepended) and spreads it
// with code, returning the chip sequence to put on the channel.
func (f *Frame) Transmit(msg []byte, code chips.Sequence) (chips.Sequence, error) {
	if len(msg) == 0 {
		return chips.Sequence{}, fmt.Errorf("frame encode: %w", rs.ErrEmptyMessage)
	}
	framed := append(frameMagic[:], msg...)
	coded, err := f.codec.Encode(framed)
	if err != nil {
		return chips.Sequence{}, fmt.Errorf("frame encode: %w", err)
	}
	return Spread(BytesToBits(coded), code)
}

// ReceiveScan implements the full receiver of §V-B: slide over the buffer
// looking for a chip offset whose leading window correlates with one of
// the candidate codes beyond τ, attempt a complete de-spread + RS decode
// there, and on failure keep scanning (false synchronization on foreign
// traffic or jamming residue is expected and survivable). It returns the
// decoded message, the matched code index, and the frame's chip offset.
func (f *Frame) ReceiveScan(buf []int32, codes []chips.Sequence, msgLen int) (msg []byte, codeIdx, offset int, err error) {
	if len(codes) == 0 {
		return nil, 0, 0, fmt.Errorf("dsss: no candidate codes")
	}
	n := codes[0].Len()
	frameChips := f.EncodedBits(msgLen) * n
	start := 0
	for {
		res, serr := Synchronize(buf[start:], codes, f.tau, f.EncodedBits(msgLen))
		if serr != nil {
			return nil, 0, 0, ErrNoSignal
		}
		off := start + res.Offset
		if off+frameChips > len(buf) {
			return nil, 0, 0, ErrNoSignal
		}
		// A sync hit locates a plausible frame start, but the code that
		// tripped the threshold may be a chance correlator of another
		// candidate (≈1.6% per code at N=256). Try the matched code
		// first, then every other candidate, before advancing — otherwise
		// a false lock at the true offset would skip the real frame.
		if m, derr := f.Receive(buf, off, codes[res.CodeIndex], msgLen); derr == nil {
			return m, res.CodeIndex, off, nil
		}
		for ci := range codes {
			if ci == res.CodeIndex {
				continue
			}
			if m, derr := f.Receive(buf, off, codes[ci], msgLen); derr == nil {
				return m, ci, off, nil
			}
		}
		start = off + 1
	}
}

// Receive de-spreads a frame that starts at chip offset off in buf and
// RS-decodes it back to the original msgLen bytes. Bits whose correlation
// falls below τ are treated as symbol erasures.
func (f *Frame) Receive(buf []int32, off int, code chips.Sequence, msgLen int) ([]byte, error) {
	numBits := f.EncodedBits(msgLen)
	bits, bitErasures, err := DespreadAt(buf, off, code, f.tau, numBits)
	if err != nil {
		return nil, err
	}
	// A coded byte is erased if any of its bits is. Additionally, a bit
	// confidently decoded to the *wrong* value shows up as an RS symbol
	// error, which the decoder also handles (within the smaller unknown-
	// error budget).
	erasures := erasedSymbols(bits, bitErasures)
	coded, err := BitsToBytes(bits)
	if err != nil {
		return nil, err
	}
	framed, err := f.codec.Decode(coded, msgLen+len(frameMagic), erasures)
	if err != nil {
		return nil, fmt.Errorf("frame decode: %w", err)
	}
	if framed[0] != frameMagic[0] || framed[1] != frameMagic[1] {
		return nil, fmt.Errorf("frame decode: bad sync word (miscorrection or wrong code)")
	}
	return framed[len(frameMagic):], nil
}

// erasedSymbols maps the ascending erased-bit indices onto the strictly
// ascending coded-byte positions that contain them, and zeroes each erased
// bit as a placeholder for packing. It compacts bitErasures in place:
// byte positions never run ahead of the bit indices they come from.
func erasedSymbols(bits []byte, bitErasures []int) []int {
	erasures := bitErasures[:0]
	for _, be := range bitErasures {
		bits[be] = 0
		if pos := be / 8; len(erasures) == 0 || erasures[len(erasures)-1] != pos {
			erasures = append(erasures, pos)
		}
	}
	return erasures
}
