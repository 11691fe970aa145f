// Package hptest seeds hotpathalloc violations: a clean //jrsnd:hotpath
// kernel whose callee allocates in every way the analyzer flags, plus a
// directive that guards nothing.
package hptest

import (
	"errors"
	"fmt"
)

var sink map[int]int

// kernel is itself allocation-free; every finding below comes from its
// static call closure.
//
//jrsnd:hotpath
func kernel(buf []int32) int {
	s := 0
	for _, v := range buf {
		s += int(v)
	}
	return s + helper(len(buf), "tag")
}

func helper(n int, name string) int {
	xs := make([]int, 0, n) // want hotpathalloc "make in hot path"
	for i := 0; i < n; i++ {
		xs = append(xs, i) // want hotpathalloc "append in hot path"
	}
	sink[n] = n       // want hotpathalloc "map write in hot path"
	var boxed any = n // want hotpathalloc "interface boxing in hot path"
	_ = boxed
	f := func() int { return n } // want hotpathalloc "closure in hot path"
	raw := []byte(name)          // want hotpathalloc "conversion in hot path"
	if len(raw) == 0 {
		fmt.Println(n) // want hotpathalloc "fmt.Println in hot path"
	}
	if n < 0 {
		panic(errors.New("negative")) // want hotpathalloc "errors.New in hot path"
	}
	return len(xs) + f()
}

// cold allocates freely: it is outside every hot closure, so none of
// this is flagged.
func cold(n int) []int {
	out := make([]int, n)
	return append(out, n)
}

//jrsnd:hotpath floating directive guards nothing // want hotpathalloc "not attached to a function"

// suppressedKernel's one allocation carries a reasoned directive.
//
//jrsnd:hotpath
func suppressedKernel(n int) int {
	//jrsnd:allow hotpathalloc fixture exercises the suppression path
	xs := make([]int, n)
	return len(xs)
}
