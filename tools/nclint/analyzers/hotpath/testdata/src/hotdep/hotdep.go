// Package hotdep is the dependency side of the cross-package fact
// test: it exports an allocating function whose summary must reach
// importers through facts.
package hotdep

import "fmt"

// Describe allocates; hotpath exports that as a fact.
func Describe(n int) string {
	return fmt.Sprintf("n=%d", n)
}

// Cheap does not allocate.
func Cheap(n int) int { return n + 1 }

// Box is generic: importers call its methods through an instance,
// whose summary is the generic method's.
type Box[T any] struct{}

// Fill allocates.
func (*Box[T]) Fill(n int) []T { return make([]T, n) }
