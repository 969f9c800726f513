// Package bad seeds directive-hygiene findings: a misplaced hotpath
// annotation, a malformed allow, an unknown check name, a stale allow that
// suppresses nothing, an unknown directive verb, and the retired
// lane-confinement annotations (runs are serial, so nothing reads them).
package bad

import "sort"

//numalint:hotpath
var notAFunction = 1

//numalint:frobnicate
const alsoWrong = 2

// Stale is annotated as the retired confinement analysis once required.
//
//numalint:lane-confined
func Stale() int { return clock }

//numalint:machine-global
var clock int

// Keys is already clean, so every allow in it is stale or malformed.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//numalint:allow nosuchcheck because reasons
	//numalint:allow determinism
	//numalint:allow determinism stale suppression of an already-clean loop
	//numalint:allow laneescape cross-lane effects used to go through the mailbox
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
