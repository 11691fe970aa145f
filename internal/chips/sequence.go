// Package chips implements NRZ (non-return-to-zero) chip sequences, the
// elementary signal representation of a DSSS system. A chip sequence is a
// vector over {+1, -1}; spread codes, spread messages and jamming signals
// are all chip sequences. Sequences are stored packed, one bit per chip
// (bit 1 means chip +1, bit 0 means chip -1), and every kernel walks the
// packed 64-bit words rather than unpacking chip by chip: correlation of
// two sequences is popcount over XOR-ed words, superposition onto a
// multi-level buffer adds eight ±1 lanes per byte by table lookup,
// correlation against such a buffer weights its samples by the same
// lanes, and slicing and concatenation move whole words by shifts.
package chips

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Sequence is an NRZ chip sequence over {+1, -1}. The zero value is the
// empty sequence. Sequences are value types; Clone before mutating a shared
// one.
type Sequence struct {
	n     int
	words []uint64
}

// ErrLengthMismatch is returned by operations that require equal-length
// sequences.
var ErrLengthMismatch = errors.New("chips: sequence length mismatch")

// New returns an all -1 (all bits zero) sequence of n chips.
func New(n int) Sequence {
	if n < 0 {
		panic("chips: negative length")
	}
	return Sequence{n: n, words: make([]uint64, (n+63)/64)}
}

// FromBits builds a sequence from a slice of bits, mapping 1 → +1 and
// 0 → -1 (the NRZ convention of the paper, §III).
func FromBits(bs []byte) Sequence {
	s := New(len(bs))
	for i, b := range bs {
		if b != 0 {
			s.set(i, true)
		}
	}
	return s
}

// FromSigns builds a sequence from a slice of ±1 values. Any positive value
// maps to +1; zero or negative maps to -1.
func FromSigns(signs []int8) Sequence {
	s := New(len(signs))
	for i, v := range signs {
		if v > 0 {
			s.set(i, true)
		}
	}
	return s
}

// NewRandom returns a uniformly random sequence of n chips drawn from rng.
// It is intended for tests and simulations that need reproducibility.
func NewRandom(rng *rand.Rand, n int) Sequence {
	s := New(n)
	for i := range s.words {
		s.words[i] = rng.Uint64()
	}
	s.maskTail()
	return s
}

// Derive deterministically expands a seed into an n-chip sequence using a
// SHA-256 counter stream. It is used both for pool-code generation by the
// authority and for session spread-code derivation h_K(n_A ⊗ n_B).
func Derive(seed []byte, n int) Sequence {
	s := New(n)
	var counter [8]byte
	var buf []byte
	h := sha256.New()
	for i := range s.words {
		if len(buf) < 8 {
			h.Reset()
			h.Write(seed)
			h.Write(counter[:])
			binary.BigEndian.PutUint64(counter[:], binary.BigEndian.Uint64(counter[:])+1)
			buf = h.Sum(nil)
		}
		s.words[i] = binary.BigEndian.Uint64(buf[:8])
		buf = buf[8:]
	}
	s.maskTail()
	return s
}

// Len returns the number of chips in the sequence.
func (s Sequence) Len() int { return s.n }

// At returns the i-th chip as +1 or -1.
func (s Sequence) At(i int) int8 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("chips: index %d out of range [0,%d)", i, s.n))
	}
	if s.bit(i) {
		return 1
	}
	return -1
}

// Bit reports whether the i-th chip is +1.
func (s Sequence) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("chips: index %d out of range [0,%d)", i, s.n))
	}
	return s.bit(i)
}

// Clone returns an independent copy of s.
func (s Sequence) Clone() Sequence {
	c := Sequence{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports whether two sequences have identical length and chips.
func (s Sequence) Equal(t Sequence) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Invert returns the chip-wise negation of s (every +1 becomes -1 and vice
// versa). In DSSS terms this is the spreading of a -1 data bit.
func (s Sequence) Invert() Sequence {
	c := s.Clone()
	for i := range c.words {
		c.words[i] = ^c.words[i]
	}
	c.maskTail()
	return c
}

// Xor returns the chip-wise product of s and t interpreted over {+1,-1}
// (equal chips yield +1). Both sequences must have the same length.
func (s Sequence) Xor(t Sequence) (Sequence, error) {
	if s.n != t.n {
		return Sequence{}, ErrLengthMismatch
	}
	c := s.Clone()
	for i := range c.words {
		// +1*+1 = +1 and -1*-1 = +1: the product bit is the XNOR of the
		// operand bits, i.e. NOT XOR.
		c.words[i] = ^(c.words[i] ^ t.words[i])
	}
	c.maskTail()
	return c, nil
}

// Slice returns the subsequence [from, to). It copies; the result does not
// alias s.
func (s Sequence) Slice(from, to int) Sequence {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("chips: slice [%d,%d) out of range [0,%d]", from, to, s.n))
	}
	c := New(to - from)
	c.orBits(0, s, from, c.n)
	return c
}

// Concat returns the concatenation of parts in one allocation.
func Concat(parts ...Sequence) Sequence {
	n := 0
	for _, p := range parts {
		n += p.n
	}
	c := New(n)
	at := 0
	for _, p := range parts {
		c.orBits(at, p, 0, p.n)
		at += p.n
	}
	return c
}

// errAddSignsRange is AddSigns' panic value, declared once so the hot
// path does not box a fresh string.
var errAddSignsRange = errors.New("chips: AddSigns range out of bounds")

// signLanes[b] holds the eight chips of byte b as ±1, lane j from bit j.
var signLanes = func() (t [256][8]int32) {
	for b := range t {
		for j := range t[b] {
			t[b][j] = int32(b>>uint(j)&1)*2 - 1
		}
	}
	return t
}()

// AddSigns adds chips [from, from+len(dst)) of s to dst, chip from+i
// onto dst[i] as ±1, each negated when neg is set. It reads 64 chips per
// word and adds them eight at a time from signLanes; the DSSS channel
// superimposes every signal through it.
//
//jrsnd:hotpath
func (s Sequence) AddSigns(dst []int32, from int, neg bool) {
	if from < 0 || from+len(dst) > s.n {
		panic(errAddSignsRange)
	}
	var flip uint64
	if neg {
		flip = ^uint64(0)
	}
	for ; len(dst) >= 64; dst, from = dst[64:], from+64 {
		w := s.wordAt(from) ^ flip
		d := (*[64]int32)(dst)
		for k := 0; k < 64; k += 8 {
			l := &signLanes[uint8(w)]
			w >>= 8
			e := (*[8]int32)(d[k : k+8])
			e[0] += l[0]
			e[1] += l[1]
			e[2] += l[2]
			e[3] += l[3]
			e[4] += l[4]
			e[5] += l[5]
			e[6] += l[6]
			e[7] += l[7]
		}
	}
	if len(dst) > 0 {
		w := s.wordAt(from) ^ flip
		for i := range dst {
			dst[i] += int32(w>>uint(i)&1)*2 - 1
		}
	}
}

// Signs returns the sequence as a freshly allocated ±1 slice.
func (s Sequence) Signs() []int8 {
	out := make([]int8, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Bits returns the sequence as 0/1 bytes (+1 → 1, -1 → 0).
func (s Sequence) Bits() []byte {
	out := make([]byte, s.n)
	for i := range out {
		if s.bit(i) {
			out[i] = 1
		}
	}
	return out
}

// FlipChips flips the chips at the given indices in place. It is used by
// channel models to corrupt a transmission.
func (s *Sequence) FlipChips(idx ...int) {
	for _, i := range idx {
		if i < 0 || i >= s.n {
			panic(fmt.Sprintf("chips: flip index %d out of range [0,%d)", i, s.n))
		}
		s.words[i/64] ^= 1 << uint(i%64)
	}
}

// Seed returns a 32-byte digest of the sequence suitable for use as a map
// key or for deriving dependent material.
func (s Sequence) Seed() [32]byte {
	buf := make([]byte, 8+8*len(s.words))
	binary.BigEndian.PutUint64(buf, uint64(s.n))
	for i, w := range s.words {
		binary.BigEndian.PutUint64(buf[8+8*i:], w)
	}
	return sha256.Sum256(buf)
}

// String renders short sequences as +- strings and long ones as a summary.
func (s Sequence) String() string {
	if s.n <= 64 {
		b := make([]byte, s.n)
		for i := 0; i < s.n; i++ {
			if s.bit(i) {
				b[i] = '+'
			} else {
				b[i] = '-'
			}
		}
		return string(b)
	}
	seed := s.Seed()
	return fmt.Sprintf("Sequence(n=%d, seed=%x)", s.n, seed[:4])
}

// Weight returns the number of +1 chips.
func (s Sequence) Weight() int {
	w := 0
	for _, word := range s.words {
		w += bits.OnesCount64(word)
	}
	return w
}

func (s Sequence) bit(i int) bool {
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

func (s *Sequence) set(i int, v bool) {
	if v {
		s.words[i/64] |= 1 << uint(i%64)
	} else {
		s.words[i/64] &^= 1 << uint(i%64)
	}
}

// wordAt returns chips [p, p+64) of s packed like a word, chip p in bit
// 0; chips past n read as zero bits. p must be in [0, n).
func (s Sequence) wordAt(p int) uint64 {
	q, r := uint(p)/64, uint(p)%64
	w := s.words[q] >> r
	if r != 0 && q+1 < uint(len(s.words)) {
		w |= s.words[q+1] << (64 - r)
	}
	return w
}

// orBits ORs chips [from, from+n) of src into s starting at chip at, a
// word per step. The target chips must still be zero (-1).
func (s *Sequence) orBits(at int, src Sequence, from, n int) {
	for k := 0; k < n; k += 64 {
		w := src.wordAt(from + k)
		if rem := n - k; rem < 64 {
			w &= 1<<uint(rem) - 1
		}
		q, r := uint(at+k)/64, uint(at+k)%64
		s.words[q] |= w << r
		// A zero spill may point past the last word; skip it.
		if hi := w >> (64 - r); hi != 0 {
			s.words[q+1] |= hi
		}
	}
}

func (s *Sequence) maskTail() {
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}
