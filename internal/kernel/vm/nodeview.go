package vm

import "ccnuma/internal/mem"

// replicaView is one node's view of the replicas resident on it: a min-heap
// of page ids with lazy deletion. The VM pushes a page when a replica is
// created on the node; nothing is removed when replicas disappear (collapse,
// reclaim, release) — instead a stale top is discarded when the view is next
// consulted. Lazy deletion keeps replica teardown O(1) while preserving the
// query the machine-wide scan used to answer: the lowest-numbered page
// currently holding a replica on this node. Every such page has at least one
// live entry (pushed at creation), so the minimum valid entry IS the scan's
// answer, and duplicates from replicate–collapse–replicate cycles resolve as
// stale pops.
//
// Splitting this state per node is what makes memory-pressure reclaim a
// single-node operation: a drain or allocation-failure sweep on node n reads
// and pops only n's view, never the whole page table.
type replicaView struct {
	pages []mem.GPage // min-heap by page id
}

func (rv *replicaView) push(p mem.GPage) {
	rv.pages = append(rv.pages, p)
	i := len(rv.pages) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if rv.pages[parent] <= rv.pages[i] {
			break
		}
		rv.pages[parent], rv.pages[i] = rv.pages[i], rv.pages[parent]
		i = parent
	}
}

func (rv *replicaView) peek() (mem.GPage, bool) {
	if len(rv.pages) == 0 {
		return 0, false
	}
	return rv.pages[0], true
}

func (rv *replicaView) pop() {
	n := len(rv.pages) - 1
	rv.pages[0] = rv.pages[n]
	rv.pages = rv.pages[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && rv.pages[l] < rv.pages[least] {
			least = l
		}
		if r < n && rv.pages[r] < rv.pages[least] {
			least = r
		}
		if least == i {
			return
		}
		rv.pages[i], rv.pages[least] = rv.pages[least], rv.pages[i]
		i = least
	}
}
