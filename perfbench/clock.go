package main

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"
)

// clock times the units of a pass: the library calls whose wall times
// make up the end-to-end metrics. When calibrating, it also times a
// fixed reference kernel between consecutive units.
//
// The benchmark runs on shared hosts where co-tenants slow the CPU and
// the memory system in bursts of up to about 2x, lasting from a tenth
// of a second to minutes. Such a burst slows the reference kernel and
// the unit next to it alike, so a unit's calibrated time,
//
//	wall × referenceNominal / (reference time around the unit),
//
// stays put while its wall time swings. The reference kernel is the
// benchmark's own code (a seeded random-graph search with map-based
// visited sets, growing slices and garbage, like the program's own hot
// paths), so a change to the program moves the unit and not the
// reference. The reference also runs apart from the program's heap: see
// isolatedReference.
type clock struct {
	calibrate bool
	units     []unit
	ref       time.Duration // reference time after the last unit
}

// unit is one timed library call within a pass.
type unit struct {
	wall time.Duration
	ops  int
	// allocBytes is what the program allocated on the heap during the
	// unit (from runtime/metrics, so it includes every goroutine).
	allocBytes uint64
	// ref is the reference kernel's mean time just before and after the
	// unit; 0 when not calibrating.
	ref time.Duration
}

// calibrated is the unit's wall time on the reference scale.
func (u unit) calibrated() time.Duration {
	if u.ref == 0 {
		return u.wall
	}
	return time.Duration(float64(u.wall) * float64(referenceNominal) / float64(u.ref))
}

// time runs fn as one unit of ops operations.
func (c *clock) time(ops int, fn func() error) error {
	if c == nil {
		return fn()
	}
	if c.calibrate && c.ref == 0 {
		c.ref = isolatedReference()
	}
	before := allocatedBytes()
	start := time.Now()
	err := fn()
	u := unit{wall: time.Since(start), ops: ops}
	u.allocBytes = allocatedBytes() - before
	if c.calibrate {
		prev := c.ref
		c.ref = isolatedReference()
		u.ref = (prev + c.ref) / 2
	}
	c.units = append(c.units, u)
	return err
}

// isolatedReference times the reference kernel apart from the program's
// heap. A collection first finishes the GC work the program's live heap
// and garbage owe (marking and sweeping), and the collector stays off
// while the kernel runs, so no program GC work lands in the reference
// window: a change that adds allocation slows its unit and not the
// reference that scales it. A second collection after the kernel frees
// its garbage, so the next unit starts from the same clean heap. Neither
// collection is timed.
func isolatedReference() time.Duration {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	d := reference()
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	return d
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// referenceNominal is roughly the reference kernel's time on an
// uncontended 2-CPU Xeon VM; it only sets the scale of calibrated times.
const referenceNominal = 10 * time.Millisecond

// reference runs the fixed reference kernel and returns its wall time.
// Its work is identical on every call: a seeded random graph of 2500
// nodes and 20000 edges, then a 3-hop breadth-first search with a
// map-based visited set from each of 32 sources.
func reference() time.Duration {
	start := time.Now()
	const n = 2500
	x := uint32(88172645)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	adj := make([][]int, n)
	for i := 0; i < n*8; i++ {
		a, b := int(next()%n), int(next()%n)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	reached := 0
	for s := 0; s < 32; s++ {
		seen := map[int]int{s: 0}
		frontier := []int{s}
		for d := 1; d <= 3 && len(frontier) > 0; d++ {
			var nf []int
			for _, u := range frontier {
				for _, v := range adj[u] {
					if _, ok := seen[v]; !ok {
						seen[v] = d
						nf = append(nf, v)
					}
				}
			}
			frontier = nf
		}
		reached += len(seen)
	}
	referenceSink = reached
	return time.Since(start)
}

// referenceSink keeps the reference kernel's result live.
var referenceSink int
