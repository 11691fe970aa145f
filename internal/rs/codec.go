package rs

import (
	"errors"
	"fmt"
	"math"
)

// Codec frames arbitrary-length messages over the block code. A message of
// b bytes is split into blocks of k data symbols, each expanded with ⌈μ·k⌉
// parity symbols, and the blocks are interleaved symbol-wise so that a
// contiguous jamming burst is spread evenly across blocks. With erasure
// decoding the codec tolerates a μ/(1+μ) fraction of erased symbols of the
// encoded stream — the ECC contract of §V-B of the paper.
type Codec struct {
	mu    float64
	code  *Code
	small map[int]*Code // cache of codes for messages shorter than one block
}

// ErrEmptyMessage is returned when encoding a zero-length message.
var ErrEmptyMessage = errors.New("rs: empty message")

// NewCodec builds a codec with expansion factor μ > 0 (encoded length ≈
// (1+μ)·message length). The block size is chosen as large as the 255-byte
// RS limit allows for the given μ.
func NewCodec(mu float64) (*Codec, error) {
	if mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return nil, fmt.Errorf("rs: invalid expansion factor μ=%v (need μ > 0)", mu)
	}
	// Largest k with k + ceil(mu*k) <= 255.
	k := int(math.Floor(255 / (1 + mu)))
	for k > 1 && k+parityFor(k, mu) > 255 {
		k--
	}
	if k < 1 {
		k = 1
	}
	code, err := NewCode(k, parityFor(k, mu))
	if err != nil {
		return nil, err
	}
	return &Codec{mu: mu, code: code, small: map[int]*Code{}}, nil
}

// codeFor returns the block code used for a msgLen-byte message: messages
// shorter than one full block use a right-sized RS(k+⌈μk⌉, k) code so that
// protocol-sized messages keep the paper's (1+μ)-expansion airtime instead
// of padding to a full block.
func (c *Codec) codeFor(msgLen int) (*Code, error) {
	if msgLen >= c.code.k {
		return c.code, nil
	}
	if small, ok := c.small[msgLen]; ok {
		return small, nil
	}
	small, err := NewCode(msgLen, parityFor(msgLen, c.mu))
	if err != nil {
		return nil, err
	}
	c.small[msgLen] = small
	return small, nil
}

func parityFor(k int, mu float64) int {
	p := int(math.Ceil(mu * float64(k)))
	if p < 1 {
		p = 1
	}
	return p
}

// Mu returns the configured expansion factor.
func (c *Codec) Mu() float64 { return c.mu }

// BlockCode returns the underlying RS block code.
func (c *Codec) BlockCode() *Code { return c.code }

// EncodedLen returns the length in bytes of the encoding of a msgLen-byte
// message.
func (c *Codec) EncodedLen(msgLen int) int {
	if msgLen <= 0 {
		return 0
	}
	code, err := c.codeFor(msgLen)
	if err != nil {
		return 0
	}
	blocks := (msgLen + code.k - 1) / code.k
	return blocks * code.N()
}

// Encode expands msg into the interleaved coded stream.
func (c *Codec) Encode(msg []byte) ([]byte, error) {
	if len(msg) == 0 {
		return nil, ErrEmptyMessage
	}
	code, err := c.codeFor(len(msg))
	if err != nil {
		return nil, err
	}
	k, n := code.k, code.N()
	blocks := (len(msg) + k - 1) / k
	coded := make([][]byte, blocks)
	for b := 0; b < blocks; b++ {
		chunk := make([]byte, k)
		copy(chunk, msg[b*k:min(len(msg), (b+1)*k)])
		cw, err := code.Encode(chunk)
		if err != nil {
			return nil, fmt.Errorf("rs: encode block %d: %w", b, err)
		}
		coded[b] = cw
	}
	// Interleave: output position i*blocks + b holds symbol i of block b.
	out := make([]byte, blocks*n)
	for b, cw := range coded {
		for i, sym := range cw {
			out[i*blocks+b] = sym
		}
	}
	return out, nil
}

// Decode recovers the original msgLen-byte message from the interleaved
// stream. erasures lists symbol positions of the encoded stream known to be
// corrupted (e.g. chips jammed below the correlation threshold); their byte
// values are ignored. Unknown errors elsewhere are also corrected, within
// the 2·errors + erasures <= parity budget per block.
func (c *Codec) Decode(encoded []byte, msgLen int, erasures []int) ([]byte, error) {
	if msgLen <= 0 {
		return nil, ErrEmptyMessage
	}
	code, err := c.codeFor(msgLen)
	if err != nil {
		return nil, err
	}
	k, n := code.k, code.N()
	blocks := (msgLen + k - 1) / k
	if len(encoded) != blocks*n {
		return nil, fmt.Errorf("%w: got %d bytes, want %d for a %d-byte message",
			ErrBlockLength, len(encoded), blocks*n, msgLen)
	}
	perBlockErasures := make([][]int, blocks)
	for _, e := range erasures {
		if e < 0 || e >= len(encoded) {
			return nil, fmt.Errorf("rs: erasure position %d out of range [0,%d)", e, len(encoded))
		}
		b := e % blocks
		perBlockErasures[b] = append(perBlockErasures[b], e/blocks)
	}
	msg := make([]byte, 0, blocks*k)
	for b := 0; b < blocks; b++ {
		word := make([]byte, n)
		for i := 0; i < n; i++ {
			word[i] = encoded[i*blocks+b]
		}
		data, err := code.Decode(word, perBlockErasures[b])
		if err != nil {
			return nil, fmt.Errorf("rs: decode block %d: %w", b, err)
		}
		msg = append(msg, data...)
	}
	return msg[:msgLen], nil
}
