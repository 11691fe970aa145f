package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestRunUnknownExperiment(t *testing.T) {
	err := run("nope", 1, 1, "reactive", false, 0, "")
	if err == nil || err.Error() != `unknown experiment "nope"` {
		t.Fatalf("unknown experiment id: %v", err)
	}
}

func TestRunUnknownJammer(t *testing.T) {
	if err := run("table1", 1, 1, "bogus", false, 0, ""); err == nil {
		t.Fatal("accepted unknown jammer")
	}
}

func TestRunTable1(t *testing.T) {
	if err := run("table1", 1, 1, "reactive", false, 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickFigureWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	// A reduced deployment keeps the sweep quick.
	if err := run("ext-antennas", 1, 1, "reactive", false, 0, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ext-antennas.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV written")
	}
}

func TestRunBaselines(t *testing.T) {
	if err := run("baseline-dos", 1, 1, "reactive", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("baseline-latency", 2, 1, "reactive", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("ext-gold", 1, 1, "reactive", false, 0, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunInstrumented covers the -metrics/-trace-jsonl deployment mode:
// a small instrumented run must produce a parseable Prometheus snapshot
// and a monotonic JSONL trace.
func TestRunInstrumented(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "out.prom")
	jsonlPath := filepath.Join(dir, "out.jsonl")
	if err := runInstrumented(promPath, jsonlPath, 1, "reactive", 30, -1); err != nil {
		t.Fatal(err)
	}

	pf, err := os.Open(promPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	snap, err := metrics.ParsePrometheus(pf)
	if err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	for _, want := range []string{
		`jrsnd_core_tx_total{kind="HELLO"}`,
		"jrsnd_sim_events_fired_total",
	} {
		if snap.Counters[want] == 0 {
			t.Errorf("counter %s missing or zero", want)
		}
	}
	if _, ok := snap.Histograms["jrsnd_core_discovery_latency_seconds"]; !ok {
		t.Error("discovery-latency histogram missing")
	}

	tf, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := trace.ReadJSONL(tf)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}

	// JSON snapshot flavor, no trace.
	jsonPath := filepath.Join(dir, "out.json")
	if err := runInstrumented(jsonPath, "", 1, "none", 30, 0); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := metrics.ReadJSON(jf); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}

	if err := runInstrumented(promPath, "", 1, "bogus", 30, -1); err == nil {
		t.Fatal("accepted unknown jammer")
	}
}

func TestRunPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if err := runPoint(2, 1, "reactive", 300, 5); err != nil {
		t.Fatal(err)
	}
	if err := runPoint(1, 1, "bogus", 0, -1); err == nil {
		t.Fatal("accepted unknown jammer")
	}
}

func TestRunChaosMatrixPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix in -short mode")
	}
	cells, err := chaosCells("")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	failed, err := runChaos(&sb, 1, cells, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("chaos matrix failed %d cells:\n%s", failed, sb.String())
	}
	want := fmt.Sprintf("%d/%d cells passed", len(cells), len(cells))
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("summary missing %q:\n%s", want, sb.String())
	}
}

func TestChaosCellsAdversarySelection(t *testing.T) {
	for _, bad := range []string{"none", "martian"} {
		if _, err := chaosCells(bad); err == nil {
			t.Fatalf("-adversary %s accepted", bad)
		}
	}
	full, err := chaosCells("")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"replay", "forge", "bitflip", "flood"} {
		cells, err := chaosCells(kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) == 0 || len(cells) >= len(full) {
			t.Fatalf("-adversary %s selected %d of %d cells", kind, len(cells), len(full))
		}
		for _, c := range cells {
			if c.Adversary.String() != kind {
				t.Fatalf("cell %q leaked into the %s selection", c.Name, kind)
			}
		}
	}
}
