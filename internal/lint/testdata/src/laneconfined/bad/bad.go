// Package bad keeps suppressions of the retired laneconfined check. Runs
// are serial, so kernel state is machine-global and no check confines it
// any more: each such allow names an unknown check and must be deleted.
package bad

var frames [4]int

// Grab takes a frame from a node's pool, once audited as a cross-lane read.
func Grab(node int) int {
	//numalint:allow laneconfined the pool belonged to the home lane
	n := frames[node]
	frames[node] = n - 1
	return n
}

// Steal moves a frame between pools; its allow also lost its reason.
func Steal(from, to int) {
	//numalint:allow laneconfined
	frames[from]--
	frames[to]++
}
