// Package hotmain imports hotdep: the finding below only exists if
// hotdep's allocation summary crossed the package boundary as a fact.
package hotmain

import "hotdep"

//nc:hotpath
func Hot(n int) string { // want `hot path Hot reaches allocation: call to Describe → call to fmt.Sprintf`
	return hotdep.Describe(n)
}

//nc:hotpath
func FineViaDep(n int) int {
	return hotdep.Cheap(n)
}

//nc:hotpath
func HotGeneric(b *hotdep.Box[int]) []int { // want `hot path HotGeneric reaches allocation: call to Fill → make`
	return b.Fill(4)
}
