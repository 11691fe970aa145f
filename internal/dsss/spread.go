// Package dsss implements the chip-level DSSS physical layer of §III and
// §V-B: spreading message bits with a spread code, de-spreading by
// correlation against a threshold τ, the receiver's sliding-window
// synchronization over a buffered multi-level chip stream, and a channel
// model that superimposes concurrent transmissions (including jamming
// signals) chip by chip.
package dsss

import (
	"errors"
	"fmt"

	"repro/internal/chips"
)

// Erased marks a de-spread bit whose correlation magnitude fell below τ
// (neither a confident 1 nor a confident 0). Erased positions are handed to
// the Reed–Solomon decoder as erasures.
const Erased byte = 0xFF

// ErrNoSignal is returned by Synchronize when no spread message is found in
// the buffer.
var ErrNoSignal = errors.New("dsss: no recognizable signal in buffer")

// Sentinel errors for the allocation-free de-spread kernel: the hot path
// cannot format (fmt allocates), so it reports these and the allocating
// wrappers re-derive the detailed message.
var (
	ErrEmptyCode    = errors.New("dsss: empty spread code")
	ErrBadThreshold = errors.New("dsss: threshold τ must be in (0,1)")
	ErrWindowRange  = errors.New("dsss: despread window out of buffer range")
	ErrErasureRoom  = errors.New("dsss: erasure scratch shorter than bit count")
)

// BytesToBits expands bytes MSB-first into a 0/1 slice.
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 8*len(data))
	for i, b := range data {
		for j := 0; j < 8; j++ {
			bits[8*i+j] = (b >> uint(7-j)) & 1
		}
	}
	return bits
}

// BitsToBytes packs a 0/1 slice (MSB-first) into bytes. Its length must be
// a multiple of 8, and no bit may be Erased.
func BitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("dsss: bit count %d not a multiple of 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i := range out {
		var b byte
		for j := 0; j < 8; j++ {
			v := bits[8*i+j]
			if v == Erased {
				return nil, fmt.Errorf("dsss: erased bit at position %d", 8*i+j)
			}
			b = b<<1 | (v & 1)
		}
		out[i] = b
	}
	return out, nil
}

// Spread multiplies each message bit by the spread code (§III): bit 1
// transmits the code, bit 0 (NRZ −1) transmits its chip-wise inverse. The
// result is the chip sequence of the whole message.
func Spread(bits []byte, code chips.Sequence) (chips.Sequence, error) {
	if code.Len() == 0 {
		return chips.Sequence{}, errors.New("dsss: empty spread code")
	}
	if len(bits) == 0 {
		return chips.Sequence{}, errors.New("dsss: empty message")
	}
	inv := code.Invert()
	parts := make([]chips.Sequence, len(bits))
	for i, b := range bits {
		switch b {
		case 1:
			parts[i] = code
		case 0:
			parts[i] = inv
		default:
			return chips.Sequence{}, fmt.Errorf("dsss: bit %d has invalid value %d", i, b)
		}
	}
	return chips.Concat(parts...), nil
}

// DespreadInto is the allocation-free de-spread kernel: it fills bits
// (one message bit per code-length window, starting at chip offset off)
// and records the indices of Erased bits in the caller-provided erasures
// scratch, returning the erasure count. erasures must be at least
// len(bits) long. On bad inputs it reports a sentinel error; DespreadAt
// wraps this kernel with formatted diagnostics.
//
//jrsnd:hotpath
func DespreadInto(bits []byte, erasures []int, buf []int32, off int, code chips.Sequence, tau float64) (int, error) {
	n := code.Len()
	if n == 0 {
		return 0, ErrEmptyCode
	}
	if tau <= 0 || tau >= 1 {
		return 0, ErrBadThreshold
	}
	if off < 0 || off+len(bits)*n > len(buf) {
		return 0, ErrWindowRange
	}
	if len(erasures) < len(bits) {
		return 0, ErrErasureRoom
	}
	count := 0
	for i := range bits {
		corr := chips.CorrelateAt(code, buf, off+i*n)
		switch {
		case corr >= tau:
			bits[i] = 1
		case corr <= -tau:
			bits[i] = 0
		default:
			bits[i] = Erased
			erasures[count] = i
			count++
		}
	}
	return count, nil
}

// DespreadAt de-spreads numBits message bits from the multi-level chip
// buffer starting at chip offset off, using the given code and threshold
// τ. Bits whose correlation magnitude is below τ come back as Erased, and
// their indices are returned as erasures. It allocates the result slices
// and formats diagnostics; the per-window work happens in DespreadInto.
func DespreadAt(buf []int32, off int, code chips.Sequence, tau float64, numBits int) (bits []byte, erasures []int, err error) {
	n := code.Len()
	if n == 0 {
		return nil, nil, ErrEmptyCode
	}
	if tau <= 0 || tau >= 1 {
		return nil, nil, fmt.Errorf("dsss: threshold τ=%v must be in (0,1)", tau)
	}
	if off < 0 || off+numBits*n > len(buf) {
		return nil, nil, fmt.Errorf("dsss: window [%d, %d) out of buffer range [0, %d)", off, off+numBits*n, len(buf))
	}
	bits = make([]byte, numBits)
	scratch := make([]int, numBits)
	count, err := DespreadInto(bits, scratch, buf, off, code, tau)
	if err != nil {
		return nil, nil, err
	}
	if count > 0 {
		erasures = scratch[:count]
	}
	return bits, erasures, nil
}
