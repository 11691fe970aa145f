package authd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// Snapshot codec: recovery decodes whatever bytes the data directory
// holds, so every rejection path is pinned here alongside the round trip.

func sampleSnapshot() snapshotState {
	return snapshotState{
		N: 64, M: 8, L: 4, Gamma: 2,
		Seed:      -7,
		Seq:       41,
		Cursor:    17,
		TakenAt:   1_700_000_000_123_456_789,
		JoinCount: 3,
		Reg: []snapRegEntry{
			{Node: 0, Via: snapViaProvision, At: 111, Tag: "batch-a"},
			{Node: 1, Via: snapViaProvision, At: 112},
			{Node: 64, Via: snapViaJoin, At: 222, Tag: "late"},
		},
		Counters: []snapCounter{{Code: 3, Count: 1}, {Code: 17, Count: 2}},
		Revoked:  []int32{5, 1 << 30},
	}
}

func mustEncodeSnapshot(t testing.TB, st snapshotState) []byte {
	t.Helper()
	data, err := encodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapPayload strips the file header from an encoded snapshot.
func snapPayload(data []byte) []byte {
	return append([]byte(nil), data[len(snapMagic)+8:]...)
}

// sealSnapshot wraps a payload in a valid header (magic, length, CRC), so
// a test can reach the payload checks behind the checksum.
func sealSnapshot(p []byte) []byte {
	out := append([]byte(snapMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(out[len(snapMagic):], uint32(len(p)))
	binary.BigEndian.PutUint32(out[len(snapMagic)+4:], crc32.Checksum(p, crcTable))
	return append(out, p...)
}

// snapFixedLen is the payload length before the registry count: four u32
// identity fields, four u64 fields (seed, seq, cursor, takenAt), and the
// u32 join count.
const snapFixedLen = 4*4 + 4*8 + 4

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	data := mustEncodeSnapshot(t, want)
	got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, want)
	}
	if again := mustEncodeSnapshot(t, got); !bytes.Equal(again, data) {
		t.Fatal("decoded snapshot re-encodes to different bytes")
	}
}

func TestSnapshotRejectsEveryStrictPrefix(t *testing.T) {
	data := mustEncodeSnapshot(t, sampleSnapshot())
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(data))
		}
	}
}

func TestSnapshotRejects(t *testing.T) {
	valid := mustEncodeSnapshot(t, sampleSnapshot())
	// Hostile counts: each table holds 64 honest entries, but its count
	// field claims far more than the remaining bytes can carry.
	many := func(edit func(*snapshotState)) snapshotState {
		st := sampleSnapshot()
		st.Reg, st.Counters, st.Revoked = nil, nil, nil
		edit(&st)
		return st
	}
	hostileReg := many(func(st *snapshotState) {
		for i := 0; i < 64; i++ {
			st.Reg = append(st.Reg, snapRegEntry{Node: i, Tag: "tag"})
		}
	})
	hostileCounters := many(func(st *snapshotState) {
		for i := 0; i < 64; i++ {
			st.Counters = append(st.Counters, snapCounter{Code: int32(i), Count: 1})
		}
	})
	hostileRevoked := many(func(st *snapshotState) {
		for i := 0; i < 64; i++ {
			st.Revoked = append(st.Revoked, int32(i))
		}
	})
	withCount := func(st snapshotState, off int) []byte {
		p := snapPayload(mustEncodeSnapshot(t, st))
		binary.BigEndian.PutUint32(p[off:], 0xFFFFFFF0)
		return sealSnapshot(p)
	}
	// Registry surgery on a one-entry snapshot: the entry starts right
	// after the registry count (node u32 | via u8 | at i64 | tagLen u16 |
	// tag).
	oneEntry := many(func(st *snapshotState) {
		st.Reg = []snapRegEntry{{Node: 3, Via: snapViaJoin, At: 9, Tag: "t"}}
	})
	entry := snapFixedLen + 4
	badVia := func() []byte {
		p := snapPayload(mustEncodeSnapshot(t, oneEntry))
		p[entry+4] = 2
		return sealSnapshot(p)
	}
	longTag := func() []byte {
		p := snapPayload(mustEncodeSnapshot(t, oneEntry))
		tagLenOff := entry + 4 + 1 + 8
		var q []byte
		q = append(q, p[:tagLenOff]...)
		q = binary.BigEndian.AppendUint16(q, walMaxTag+1)
		q = append(q, strings.Repeat("x", walMaxTag+1)...)
		q = append(q, p[tagLenOff+2+1:]...)
		return sealSnapshot(q)
	}
	trailing := func() []byte {
		return sealSnapshot(append(snapPayload(valid), 0))
	}

	cases := []struct {
		name string
		data []byte
		// fast marks inputs that must be refused before any per-entry
		// allocation.
		fast bool
	}{
		{name: "bad magic", data: append([]byte("JRSNDSN1"), valid[len(snapMagic):]...)},
		{name: "bad CRC", data: func() []byte {
			d := append([]byte(nil), valid...)
			d[len(snapMagic)+4] ^= 0x01
			return d
		}()},
		{name: "payload bit flip", data: func() []byte {
			d := append([]byte(nil), valid...)
			d[len(d)-1] ^= 0x80
			return d
		}()},
		{name: "trailing file byte", data: append(append([]byte(nil), valid...), 0)},
		{name: "trailing payload byte", data: trailing()},
		{name: "payload over cap", data: func() []byte {
			d := append([]byte(nil), valid...)
			binary.BigEndian.PutUint32(d[len(snapMagic):], snapMaxPayload+1)
			return d
		}()},
		{name: "hostile registry count", data: withCount(hostileReg, snapFixedLen), fast: true},
		{name: "hostile counter count", data: withCount(hostileCounters, snapFixedLen+4), fast: true},
		{name: "hostile revoked count", data: withCount(hostileRevoked, snapFixedLen+8), fast: true},
		{name: "counter code out of range", data: mustEncodeSnapshot(t, many(func(st *snapshotState) {
			st.Counters = []snapCounter{{Code: 1<<30 + 1, Count: 1}}
		}))},
		{name: "counter count out of range", data: mustEncodeSnapshot(t, many(func(st *snapshotState) {
			st.Counters = []snapCounter{{Code: 1, Count: 1<<30 + 1}}
		}))},
		{name: "revoked code out of range", data: mustEncodeSnapshot(t, many(func(st *snapshotState) {
			st.Revoked = []int32{1<<30 + 1}
		}))},
		{name: "bad via byte", data: badVia()},
		{name: "tag over cap", data: longTag()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeSnapshot(tc.data); err == nil {
				t.Fatal("accepted")
			}
			if !tc.fast {
				return
			}
			// Decoding the 64 honest entries would cost well over 64
			// allocations; refusing on the count costs only the error.
			allocs := testing.AllocsPerRun(10, func() { _, _ = decodeSnapshot(tc.data) })
			if allocs > 8 {
				t.Fatalf("%.0f allocations before rejecting a hostile count", allocs)
			}
		})
	}
}

// FuzzDecodeSnapshot: decoding arbitrary bytes never panics, and every
// accepted input is canonical — it re-encodes to exactly the same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, err := encodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeSnapshot(snapshotState{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(empty)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		again, err := encodeSnapshot(st)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted snapshot is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}
