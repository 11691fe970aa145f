package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// pinsJSON holds every deterministic workload's outputs at the default
// and the held-out seed, regenerated with `go run . -pin pins.json` from
// this directory when a change is meant to alter them.
//
//go:embed pins.json
var pinsJSON []byte

// pinSet maps seed → workload → output key → value.
type pinSet map[string]map[string]map[string]float64

func embeddedPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func (p pinSet) lookup(seed int64, workload string) (outputs, bool) {
	pinned, ok := p[strconv.FormatInt(seed, 10)][workload]
	if !ok {
		return nil, false
	}
	out := make(outputs, 0, len(pinned))
	for k, v := range pinned {
		out = append(out, value{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, true
}

// pinnedWorkloads are the workloads with deterministic outputs; the
// authority's only pinned output is zero failed requests.
var pinnedWorkloads = []string{"figure-sweep", "chip-channel", "protocol-engine"}

// pinnedOutputs are a workload's outputs to pin: the library's own
// figure calls for figure-sweep, whose pass sweeps the points itself,
// and the pass's outputs for the others.
func pinnedOutputs(w workload, seed int64) (outputs, error) {
	if f, ok := w.(*figureSweep); ok {
		return f.figures(seed)
	}
	pr, err := w.pass(context.Background(), seed, nil)
	return pr.out, err
}

// writePins regenerates the pinned outputs.
func writePins(path string) error {
	pins := pinSet{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		key := strconv.FormatInt(seed, 10)
		pins[key] = map[string]map[string]float64{}
		for _, name := range pinnedWorkloads {
			w, err := newWorkload(name)
			if err != nil {
				return err
			}
			if err := w.setup(seed); err != nil {
				return err
			}
			out, err := pinnedOutputs(w, seed)
			w.close()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			pinned := make(map[string]float64, len(out))
			for _, v := range out {
				pinned[v.Key] = v.Value
			}
			pins[key][name] = pinned
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
