package experiment

import (
	"slices"
	"testing"
)

func TestRegistryIDs(t *testing.T) {
	// The registry is the only id list: jrsnd-sim -list prints it and runs
	// it in this order, and the report looks its figures up in it.
	want := []string{
		"table1",
		"fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b",
		"dsss", "dos",
		"ext-antennas", "ext-gold", "ext-z", "ext-noise",
		"ext-predistribution", "ext-crosscheck", "ext-adaptive-nu",
		"baseline-q", "baseline-latency", "baseline-dos",
	}
	ids := IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	if len(ids) < 20 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("registry ids %v, want %v", ids, want)
	}
}
