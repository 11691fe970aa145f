package chips

import "math/bits"

// Correlate computes the normalized correlation between two equal-length
// NRZ sequences, (1/N) Σ u_i v_i, as defined in §III of the paper. The
// result lies in [-1, 1]: +1 for identical sequences, -1 for chip-wise
// inverses, and near 0 for independent random sequences.
//
//jrsnd:hotpath
func Correlate(u, v Sequence) (float64, error) {
	if u.n != v.n {
		return 0, ErrLengthMismatch
	}
	if u.n == 0 {
		return 0, nil
	}
	agree := 0
	for i := range u.words {
		agree += 64 - bits.OnesCount64(u.words[i]^v.words[i])
	}
	// The tail beyond n was masked to zero in both words, so those
	// positions always "agree"; subtract them back out.
	agree -= len(u.words)*64 - u.n
	disagree := u.n - agree
	return float64(agree-disagree) / float64(u.n), nil
}

// CorrelateAt computes the normalized correlation between code and the
// window buf[off : off+code.Len()) of a raw multi-level chip buffer (the
// output of a channel that superimposes several ±1 signals). Each buffer
// element is the signed sum of the concurrently transmitted chips at that
// position. The caller must guarantee off+code.Len() <= len(buf).
//
//jrsnd:hotpath
func CorrelateAt(code Sequence, buf []int32, off int) float64 {
	n := code.n
	if n == 0 {
		return 0
	}
	win := buf[off : off+n]
	var acc int64
	for k, w := range code.words {
		seg := win[64*k:]
		if len(seg) < 64 {
			// Partial last word: m is 0 for a +1 chip and -1 (all
			// ones) for a -1 chip, so (v^m)-m is ±v without a branch.
			for _, v := range seg {
				m := int64(w&1) - 1
				acc += (int64(v) ^ m) - m
				w >>= 1
			}
			break
		}
		d := (*[64]int32)(seg)
		for j := 0; j < 64; j += 8 {
			l := &signLanes[uint8(w)]
			w >>= 8
			e := (*[8]int32)(d[j : j+8])
			acc += int64(e[0])*int64(l[0]) + int64(e[1])*int64(l[1]) +
				int64(e[2])*int64(l[2]) + int64(e[3])*int64(l[3]) +
				int64(e[4])*int64(l[4]) + int64(e[5])*int64(l[5]) +
				int64(e[6])*int64(l[6]) + int64(e[7])*int64(l[7])
		}
	}
	return float64(acc) / float64(n)
}

// Hamming returns the number of chip positions where u and v differ.
func Hamming(u, v Sequence) (int, error) {
	if u.n != v.n {
		return 0, ErrLengthMismatch
	}
	d := 0
	for i := range u.words {
		d += bits.OnesCount64(u.words[i] ^ v.words[i])
	}
	return d, nil
}
