package main

import (
	"runtime/debug"
	"testing"
)

// liveHeap is a unit's pointer-rich state that stays live across the
// reference kernel timed after the unit, as a server's state would.
var liveHeap []*heapNode

type heapNode struct {
	next *heapNode
	pad  [3]int
}

// TestCalibrationIsolatesUnitHeap checks that a unit which leaves a
// large live heap, with its GC work still owed, does not slow the
// reference kernel that scales it. Otherwise calibration would dilute an
// allocation regression: the slower unit would be divided by a slower
// reference.
func TestCalibrationIsolatesUnitHeap(t *testing.T) {
	light := func() error {
		liveHeap = nil
		return nil
	}
	heavy := func() error {
		// Built with the collector off, so the whole heap is owed to the
		// cycle that starts after the unit returns.
		gcPercent := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gcPercent)
		liveHeap = make([]*heapNode, 1<<20)
		for i := range liveHeap {
			liveHeap[i] = &heapNode{}
			if i > 0 {
				liveHeap[i].next = liveHeap[i-1]
			}
		}
		return nil
	}
	refAfter := func(unit func() error) float64 {
		c := &clock{calibrate: true}
		if err := c.time(1, unit); err != nil {
			t.Fatal(err)
		}
		return c.ref.Seconds()
	}
	var lightRefs, heavyRefs []float64
	for i := 0; i < 7; i++ {
		lightRefs = append(lightRefs, refAfter(light))
		heavyRefs = append(heavyRefs, refAfter(heavy))
	}
	liveHeap = nil
	// Without the isolation the ratio is about 4 on a 2-vCPU Xeon VM. What
	// remains with it is mostly the kernel faulting in fresh heap pages
	// next to the larger live heap.
	if r := median(heavyRefs) / median(lightRefs); r > 1.5 {
		t.Errorf("reference after a heavy unit took %.2fx its time after a light one (light %v, heavy %v)",
			r, lightRefs, heavyRefs)
	}
}
