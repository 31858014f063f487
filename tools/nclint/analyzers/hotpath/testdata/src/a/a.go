// Package a exercises hotpath's direct-site detection, local callee
// propagation, and //nc:allow suppression.
package a

import "fmt"

//nc:hotpath
func DirectAllocs() string { // want `hot path DirectAllocs reaches allocation: call to fmt.Sprintf` `hot path DirectAllocs reaches allocation: make`
	s := fmt.Sprintf("x%d", 1)
	b := make([]byte, 8)
	return s + string(b[0]) //nc:allow(hotpath) fixture: concatenation is under test elsewhere
}

//nc:hotpath
func ViaCallee() int { // want `hot path ViaCallee reaches allocation: call to helper → slice literal`
	return helper()
}

func helper() int {
	xs := []int{1, 2, 3}
	return xs[0]
}

// NotHot allocates freely: no annotation, no finding.
func NotHot() string {
	return fmt.Sprintf("%d", 2)
}

//nc:hotpath
func Suppressed() int {
	return helper() //nc:allow(hotpath) fixture: amortized setup, not per-op
}

//nc:hotpath
func Boxes(v int) { // want `hot path Boxes reaches allocation: boxing v into any \(argument to sink\)`
	sink(v)
}

func sink(any) {}

//nc:hotpath
func Spawns() { // want `hot path Spawns reaches allocation: goroutine spawn`
	go func() {}()
}

// A capturing closure stays off the heap when it is only called on the
// spot or deferred; stored or returned, it is allocated.

//nc:hotpath
func ClosureCalled(n int) int {
	return func() int { return n + 1 }()
}

//nc:hotpath
func ClosureDeferred(n *int) {
	defer func() { *n++ }()
}

//nc:hotpath
func ClosureEscapes(n int) func() int { // want `hot path ClosureEscapes reaches allocation: closure captures "n"`
	return func() int { return n }
}
