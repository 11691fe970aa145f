package jrsnd_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	jrsnd "repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	params := jrsnd.DefaultParams()
	params.N = 30
	params.M = 10
	params.L = 8
	params.Q = 2
	params.FieldWidth, params.FieldHeight = 900, 900

	net, err := jrsnd.New(jrsnd.NetworkConfig{
		Params: params,
		Seed:   1,
		Jammer: jrsnd.JamReactive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.CompromiseRandom(params.Q); err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if err := net.RunMNDP(1); err != nil {
		t.Fatal(err)
	}
	if len(net.Discoveries()) == 0 {
		t.Fatal("no discoveries in a dense 30-node cluster")
	}
	for _, d := range net.Discoveries() {
		if d.Via != jrsnd.ViaDNDP && d.Via != jrsnd.ViaMNDP {
			t.Fatalf("unknown discovery method %v", d.Via)
		}
	}
}

func TestFacadeTheoryConsistency(t *testing.T) {
	p := jrsnd.DefaultParams()
	lower, upper := jrsnd.DNDPBounds(p)
	if lower > upper {
		t.Fatal("bounds inverted")
	}
	if a := jrsnd.Alpha(p); a <= 0 || a >= 1 {
		t.Fatalf("α = %v out of (0,1) at the defaults", a)
	}
	sum := 0.0
	for x := 0; x <= p.M; x++ {
		sum += jrsnd.PrShared(p, x)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Pr[x] sums to %v", sum)
	}
	pHat, tBar := jrsnd.Combined(p)
	if pHat < lower || tBar < jrsnd.DNDPLatency(p) {
		t.Fatal("combined metrics inconsistent with components")
	}
	if jrsnd.MNDPLatency(p, 2, p.AvgDegree()) <= 0 {
		t.Fatal("non-positive M-NDP latency")
	}
	if jrsnd.MNDPLowerBound(0.5, 20) <= 0 {
		t.Fatal("non-positive M-NDP bound")
	}
}

func TestFacadeMeasureAndPrint(t *testing.T) {
	p := jrsnd.DefaultParams()
	p.N = 300
	p.L = 15
	p.Q = 5
	p.FieldWidth, p.FieldHeight = 2000, 2000
	m, err := jrsnd.MeasurePoint(jrsnd.PointConfig{
		Params: p,
		Jammer: jrsnd.CampaignJamReactive,
		Runs:   2,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.PHat < m.PD {
		t.Fatal("JR-SND below D-NDP")
	}
	table, err := jrsnd.RunExperiment("table1", jrsnd.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := jrsnd.PrintFigure(&sb, table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Fatal("Table1 print missing title")
	}
}

func TestFacadeEpochLoop(t *testing.T) {
	params := jrsnd.DefaultParams()
	params.N = 12
	params.M = 5
	params.L = 12
	params.Q = 0
	params.FieldWidth, params.FieldHeight = 600, 600

	net, err := jrsnd.New(jrsnd.NetworkConfig{Params: params, Seed: 4, Jammer: jrsnd.JamNone})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.RunEpochs(jrsnd.EpochConfig{Epochs: 2, Window: 1, MNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d epochs", len(stats))
	}
	if stats[0].PhysicalLinks > 0 && stats[0].Coverage() < 0.99 {
		t.Fatalf("coverage %v without jamming", stats[0].Coverage())
	}
}

func TestFacadeTraceAndRevocation(t *testing.T) {
	rec, err := jrsnd.NewTraceRecorder(1024)
	if err != nil {
		t.Fatal(err)
	}
	params := jrsnd.DefaultParams()
	params.N = 6
	params.M = 4
	params.L = 6
	params.Q = 0
	params.FieldWidth, params.FieldHeight = 500, 500
	net, err := jrsnd.New(jrsnd.NetworkConfig{Params: params, Seed: 5, Jammer: jrsnd.JamNone, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RevokeGlobally(0); err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	if len(rec.Filter(0, -1, "authority revoked")) != 1 {
		t.Fatal("global revocation not traced")
	}
}

func TestFacadeBaselines(t *testing.T) {
	u := jrsnd.DefaultUFH()
	if u.ExpectedEstablishmentTime() <= jrsnd.DNDPLatency(jrsnd.DefaultParams()) {
		t.Fatal("UFH not slower than D-NDP at defaults")
	}
	var cc jrsnd.BaselineCommonCode
	if cc.DiscoveryProbability(1) != 0 {
		t.Fatal("common code survived compromise")
	}
	fig, err := jrsnd.RunExperiment("baseline-dos", jrsnd.SweepConfig{Base: jrsnd.DefaultParams()})
	if err != nil || len(fig.Series) == 0 {
		t.Fatalf("baseline-dos: %v", err)
	}
}

func TestFacadeRunExperimentUnknownID(t *testing.T) {
	if _, err := jrsnd.RunExperiment("fig9z", jrsnd.SweepConfig{}); err == nil {
		t.Fatal("accepted unknown experiment id")
	}
	if ids := jrsnd.ExperimentIDs(); len(ids) < 20 || ids[0] != "table1" {
		t.Fatalf("experiment ids %v", ids)
	}
}

// ExampleNew demonstrates the minimal discovery workflow.
func ExampleNew() {
	params := jrsnd.DefaultParams()
	params.N = 10
	params.M = 6
	params.L = 10 // every node shares every code
	params.Q = 0
	params.FieldWidth, params.FieldHeight = 500, 500

	net, err := jrsnd.New(jrsnd.NetworkConfig{Params: params, Seed: 1, Jammer: jrsnd.JamNone})
	if err != nil {
		panic(err)
	}
	if err := net.RunDNDP(1); err != nil {
		panic(err)
	}
	fmt.Println("all physical pairs discovered:", len(net.Discoveries()) == net.PhysicalGraph().NumEdges())
	// Output: all physical pairs discovered: true
}
