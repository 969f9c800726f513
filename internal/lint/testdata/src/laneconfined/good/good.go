// Package good is the same frame-pool code with the retired suppressions
// removed: touching machine-global state needs no directive, so it lints
// clean.
package good

var frames [4]int

// Grab takes a frame from a node's pool.
func Grab(node int) int {
	n := frames[node]
	frames[node] = n - 1
	return n
}

// Steal moves a frame between pools.
func Steal(from, to int) {
	frames[from]--
	frames[to]++
}
