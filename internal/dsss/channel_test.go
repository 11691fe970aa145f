package dsss

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/chips"
)

// The channel and spreading kernels walk packed chip words; these tests
// hold them to per-chip references built only on chips.Sequence.At.

// refAdd is the per-chip reference for Channel.Add (neg false) and
// Channel.AddInverted (neg true), clipping to the buffer chip by chip.
func refAdd(buf []int32, signal chips.Sequence, off int, neg bool) {
	for i := 0; i < signal.Len(); i++ {
		pos := off + i
		if pos < 0 || pos >= len(buf) {
			continue
		}
		v := int32(signal.At(i))
		if neg {
			v = -v
		}
		buf[pos] += v
	}
}

// refCorrelateAt is the per-chip reference for chips.CorrelateAt.
func refCorrelateAt(code chips.Sequence, buf []int32, off int) float64 {
	var acc int64
	for i := 0; i < code.Len(); i++ {
		acc += int64(code.At(i)) * int64(buf[off+i])
	}
	return float64(acc) / float64(code.Len())
}

// channelOffsets places an n-chip signal on a bufLen-chip channel wholly
// before it, straddling its start, at unaligned and aligned interior
// offsets, straddling its end, and wholly past it.
func channelOffsets(n, bufLen int) []int {
	return []int{-n - 5, -n, -n + 1, -65, -64, -1, 0, 1, 63, 64, 65, 100, bufLen - n, bufLen - 1, bufLen, bufLen + 7}
}

// noisyChannel returns a channel of bufLen chips that already carries
// multi-level samples, so an add that writes instead of adding shows.
func noisyChannel(t testing.TB, rng *rand.Rand, bufLen int) *Channel {
	t.Helper()
	ch, err := NewChannel(bufLen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ch.buf {
		ch.buf[i] = int32(rng.Intn(9) - 4)
	}
	return ch
}

// addMatches superimposes signal at off through the channel and through
// refAdd and reports whether the two buffers agree.
func addMatches(t testing.TB, rng *rand.Rand, signal chips.Sequence, bufLen, off int, neg bool) bool {
	ch := noisyChannel(t, rng, bufLen)
	want := append([]int32(nil), ch.Samples()...)
	if neg {
		ch.AddInverted(signal, off)
	} else {
		ch.Add(signal, off)
	}
	refAdd(want, signal, off, neg)
	return slices.Equal(ch.Samples(), want)
}

func TestChannelAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 300; n++ {
		signal := chips.NewRandom(rng, n)
		for _, bufLen := range []int{200, 320} {
			for _, off := range channelOffsets(n, bufLen) {
				for _, neg := range []bool{false, true} {
					if !addMatches(t, rng, signal, bufLen, off, neg) {
						t.Fatalf("n=%d bufLen=%d off=%d inverted=%v: channel differs from the per-chip reference", n, bufLen, off, neg)
					}
				}
			}
		}
	}
}

func TestPropertyChannelAdd(t *testing.T) {
	f := func(seed int64, nRaw, bufRaw uint16, offRaw int16, neg bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		bufLen := int(bufRaw)%400 + 1
		off := int(offRaw) % 700
		return addMatches(t, rng, chips.NewRandom(rng, n), bufLen, off, neg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelateAtOnChannelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for n := 1; n <= 300; n++ {
		code := chips.NewRandom(rng, n)
		bufLen := n + 140
		ch := noisyChannel(t, rng, bufLen)
		ch.Add(code, 70)
		ch.AddInverted(chips.NewRandom(rng, n), 3)
		for _, off := range []int{0, 1, 63, 64, 69, 70, 71, 139, 140} {
			if got, want := chips.CorrelateAt(code, ch.Samples(), off), refCorrelateAt(code, ch.Samples(), off); got != want {
				t.Fatalf("n=%d off=%d: CorrelateAt = %v, want %v", n, off, got, want)
			}
		}
	}
}

func TestSpreadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 1; n <= 300; n++ {
		code := chips.NewRandom(rng, n)
		bits := make([]byte, 1+rng.Intn(9))
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		sig, err := Spread(bits, code)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Len() != len(bits)*n {
			t.Fatalf("n=%d: spread %d bits into %d chips, want %d", n, len(bits), sig.Len(), len(bits)*n)
		}
		for i, b := range bits {
			for j := 0; j < n; j++ {
				want := code.At(j)
				if b == 0 {
					want = -want
				}
				if got := sig.At(i*n + j); got != want {
					t.Fatalf("n=%d bit %d chip %d = %d, want %d", n, i, j, got, want)
				}
			}
		}
	}
}

func TestErasedSymbolsStrictlyAscending(t *testing.T) {
	bits := []byte{1, Erased, Erased, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, Erased, 1, 1, 1, 1, 1, 1, Erased}
	got := erasedSymbols(bits, []int{1, 2, 16, 23})
	if want := []int{0, 2}; !slices.Equal(got, want) {
		t.Fatalf("erasedSymbols = %v, want %v", got, want)
	}
	for _, be := range []int{1, 2, 16, 23} {
		if bits[be] != 0 {
			t.Fatalf("erased bit %d left as %#x, want the 0 placeholder", be, bits[be])
		}
	}
	if got := erasedSymbols(bits, nil); len(got) != 0 {
		t.Fatalf("erasedSymbols with no erased bits = %v, want none", got)
	}
}

// TestJammedFrameErasureOrder jams scattered bytes of a frame so the
// receiver sees erasures in several RS blocks, then checks that the
// erasure list Receive builds is strictly ascending, that Receive decodes
// the frame, and that the decoder returns the same bytes for any order
// of that list.
func TestJammedFrameErasureOrder(t *testing.T) {
	frame, err := NewFrame(1.0, testTau)
	if err != nil {
		t.Fatal(err)
	}
	const chipLen = 128
	rng := rand.New(rand.NewSource(34))
	code := chips.NewRandom(rng, chipLen)
	msg := make([]byte, 25)
	rng.Read(msg)
	sig, err := frame.Transmit(msg, code)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sig.Len())
	if err != nil {
		t.Fatal(err)
	}
	ch.Add(sig, 0)
	// Cancel (rather than invert) a few bits in each of several coded
	// bytes: the correlation collapses to 0, so the bits are erased.
	codedBytes := frame.EncodedBits(len(msg)) / 8
	for _, b := range rng.Perm(codedBytes)[:codedBytes/4] {
		for bit := 0; bit < 8; bit += 3 {
			from := (8*b + bit) * chipLen
			ch.AddInverted(sig.Slice(from, from+chipLen), from)
		}
	}

	got, err := frame.Receive(ch.Samples(), 0, code, len(msg))
	if err != nil {
		t.Fatalf("jammed frame within budget: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("jammed frame decoded to the wrong message")
	}

	bits, bitErasures, err := DespreadAt(ch.Samples(), 0, code, testTau, frame.EncodedBits(len(msg)))
	if err != nil {
		t.Fatal(err)
	}
	erasures := erasedSymbols(bits, bitErasures)
	if len(erasures) != codedBytes/4 {
		t.Fatalf("%d erased symbols, want %d", len(erasures), codedBytes/4)
	}
	for i := 1; i < len(erasures); i++ {
		if erasures[i] <= erasures[i-1] {
			t.Fatalf("erasures not strictly ascending: %v", erasures)
		}
	}
	coded, err := BitsToBytes(bits)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]int(nil), erasures...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		framed, err := frame.Codec().Decode(coded, len(msg)+len(frameMagic), shuffled)
		if err != nil {
			t.Fatalf("decode with shuffled erasures %v: %v", shuffled, err)
		}
		if !bytes.Equal(framed[len(frameMagic):], got) {
			t.Fatalf("decode with shuffled erasures %v differs from Receive", shuffled)
		}
	}
}
