package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden CSVs instead of comparing against them:
//
//	go test ./internal/experiment -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.csv from the current code")

// checkGolden pins fig's CSV rendering (WriteCSV prints every value in its
// shortest exact form) byte for byte against testdata/golden/<name>.csv.
func checkGolden(t *testing.T, name string, fig Figure) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name+".csv")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", name, path, buf.Bytes(), want)
	}
}

// nuProfileFigure renders a ν profile as a figure so it can be pinned.
func nuProfileFigure(p NuProfile) Figure {
	xs := make([]float64, p.MaxNu)
	pd := make([]float64, p.MaxNu)
	for i := range xs {
		xs[i] = float64(i + 1)
		pd[i] = p.PD
	}
	return Figure{XLabel: "nu", Series: []Series{
		{Label: "PD", X: xs, Y: pd},
		{Label: "PM", X: xs, Y: p.PM},
		{Label: "PHat", X: xs, Y: p.PHat},
	}}
}
