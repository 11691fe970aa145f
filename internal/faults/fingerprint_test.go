package faults

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// update rewrites the fingerprint golden instead of comparing against it:
//
//	go test ./internal/faults -run TestChaosFingerprintsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from the current code")

var fingerprintGolden = filepath.Join("testdata", "fingerprints.golden")

// TestChaosFingerprintsGolden pins every matrix cell's determinism
// fingerprint (discovery ledger, medium counters, violations) at seed 1,
// one "<cell> <sha256>" line per cell, so a refactor of the engine that
// changes any cell's observable outcome fails here and names the cell.
func TestChaosFingerprintsGolden(t *testing.T) {
	var got bytes.Buffer
	sums := map[string]string{}
	for _, cell := range Matrix() {
		_, fp, err := runCellOnce(cell, 1, nil)
		if err != nil {
			t.Fatalf("cell %s: %v", cell.Name, err)
		}
		sum := sha256.Sum256([]byte(fp))
		sums[cell.Name] = hex.EncodeToString(sum[:])
		fmt.Fprintf(&got, "%s %s\n", cell.Name, sums[cell.Name])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", fingerprintGolden, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, cell := range Matrix() {
		w, ok := want[cell.Name]
		switch {
		case !ok:
			t.Errorf("cell %s: missing from %s", cell.Name, fingerprintGolden)
		case w != sums[cell.Name]:
			t.Errorf("cell %s: fingerprint sha256 %s, golden has %s", cell.Name, sums[cell.Name], w)
		}
	}
	if len(want) != len(sums) {
		t.Errorf("%s has %d cells, the matrix has %d", fingerprintGolden, len(want), len(sums))
	}
}

// TestTracedCellsReplayByteIdentically: two traced runs of the same cell
// and seed write byte-identical JSONL. The two cells are the ones whose
// expiry and crash events once followed Go's random map order.
func TestTracedCellsReplayByteIdentically(t *testing.T) {
	for _, name := range []string{"jam=pulse/churn=true/loss=0.15", "adv=bitflip/jam=none/churn=true"} {
		var cell Cell
		for _, c := range Matrix() {
			if c.Name == name {
				cell = c
			}
		}
		if cell.Name == "" {
			t.Fatalf("cell %s is not in the matrix", name)
		}
		var runs [2]bytes.Buffer
		for i := range runs {
			jw := trace.NewJSONLWriter(&runs[i])
			if _, err := RunCellTraced(cell, 1, jw); err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if runs[0].Len() == 0 {
			t.Fatalf("cell %s: empty trace", name)
		}
		if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
			t.Errorf("cell %s: two traced runs wrote different JSONL", name)
		}
	}
}
