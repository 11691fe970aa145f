package dsss

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/chips"
)

// fuzzCodes builds a fixed candidate-code set (deterministic; shared by
// every fuzz iteration). Short codes keep the sliding-window scan cheap
// enough for high iteration counts.
func fuzzCodes(n, count int) []chips.Sequence {
	rng := rand.New(rand.NewSource(1))
	codes := make([]chips.Sequence, count)
	for i := range codes {
		codes[i] = chips.NewRandom(rng, n)
	}
	return codes
}

// fuzzSamples maps fuzz bytes onto channel samples. ±1 bytes map to clean
// chips, everything else to stronger interference levels, so the fuzzer
// can express both plausible signals and garbage.
func fuzzSamples(data []byte) []int32 {
	const maxSamples = 1024 // bounds the O(len²) worst case of ReceiveScan
	if len(data) > maxSamples {
		data = data[:maxSamples]
	}
	buf := make([]int32, len(data))
	for i, b := range data {
		buf[i] = int32(int8(b))
	}
	return buf
}

// FuzzSyncWindow drives the §V-B receiver — sliding-window synchronization
// plus the full scan/de-spread/RS-decode loop — with arbitrary channel
// samples. Properties: never panic, always terminate, and any reported
// sync offset must leave room for the whole message inside the buffer.
func FuzzSyncWindow(f *testing.F) {
	const (
		chipLen = 16
		tau     = 0.5
		msgLen  = 2
	)
	codes := fuzzCodes(chipLen, 3)
	frame, err := NewFrame(0.5, tau)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: silence, a clean on-air frame, a truncated frame, and a
	// frame buried after garbage.
	f.Add([]byte{})
	f.Add(make([]byte, 256))
	signal, err := frame.Transmit([]byte{0xAB, 0xCD}, codes[1])
	if err != nil {
		f.Fatal(err)
	}
	onAir := make([]byte, signal.Len())
	for i := 0; i < signal.Len(); i++ {
		onAir[i] = byte(int8(signal.At(i)))
	}
	f.Add(onAir)
	f.Add(onAir[:len(onAir)/2])
	f.Add(append(make([]byte, 100), onAir...))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := fuzzSamples(data)
		msgBits := frame.EncodedBits(msgLen)

		res, err := Synchronize(buf, codes, tau, msgBits)
		if err == nil {
			if res.CodeIndex < 0 || res.CodeIndex >= len(codes) {
				t.Fatalf("sync matched code %d of %d", res.CodeIndex, len(codes))
			}
			if res.Offset < 0 || res.Offset > len(buf)-msgBits*chipLen {
				t.Fatalf("sync offset %d leaves no room for %d bits in %d chips",
					res.Offset, msgBits, len(buf))
			}
		}

		msg, codeIdx, off, err := frame.ReceiveScan(buf, codes, msgLen)
		if err != nil {
			return
		}
		if len(msg) != msgLen {
			t.Fatalf("decoded %d bytes, want %d", len(msg), msgLen)
		}
		if codeIdx < 0 || codeIdx >= len(codes) {
			t.Fatalf("matched code %d of %d", codeIdx, len(codes))
		}
		if off < 0 || off+msgBits*chipLen > len(buf) {
			t.Fatalf("frame offset %d out of bounds for %d chips", off, len(buf))
		}
	})
}

// FuzzChannelAdd superimposes an arbitrary signal at an arbitrary offset
// on a fixed, already noisy channel and compares Add or AddInverted with
// the per-chip reference refAdd. The signal is the first length bits of
// data (MSB first), so lengths that are not a multiple of 64 and offsets
// before, across and past either end of the buffer all come up.
func FuzzChannelAdd(f *testing.F) {
	const bufLen = 300
	f.Add([]byte{0xA5, 0x3C, 0xFF, 0x00, 0x81, 0x7E, 0x12, 0x34, 0x56}, uint16(70), int16(0), false)
	f.Add([]byte{0xA5, 0x3C, 0xFF, 0x00, 0x81, 0x7E, 0x12, 0x34, 0x56}, uint16(65), int16(-9), true)
	f.Add(bytes.Repeat([]byte{0x6B}, 48), uint16(383), int16(250), false)
	f.Add([]byte{0x80}, uint16(1), int16(bufLen-1), true)
	f.Add([]byte{}, uint16(0), int16(5), false)

	f.Fuzz(func(t *testing.T, data []byte, length uint16, off int16, invert bool) {
		bits := BytesToBits(data)
		signal := chips.FromBits(bits[:int(length)%(len(bits)+1)])
		rng := rand.New(rand.NewSource(int64(len(data))))
		ch := noisyChannel(t, rng, bufLen)
		want := append([]int32(nil), ch.Samples()...)
		if invert {
			ch.AddInverted(signal, int(off))
		} else {
			ch.Add(signal, int(off))
		}
		refAdd(want, signal, int(off), invert)
		for i, v := range want {
			if ch.Samples()[i] != v {
				t.Fatalf("%d chips at off %d (inverted=%v): sample %d = %d, want %d",
					signal.Len(), off, invert, i, ch.Samples()[i], v)
			}
		}
	})
}
