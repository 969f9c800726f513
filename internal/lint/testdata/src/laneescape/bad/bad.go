// Package bad keeps suppressions of the retired laneescape check inside a
// hot-path function. A stale allow names an unknown check and suppresses
// nothing: the live hotpath finding under it is still reported, while an
// audited hotpath allow stacked under a stale one keeps working.
package bad

import "fmt"

type cpu struct {
	node  int
	wakes []int
}

// Wake queues a wake-up for a CPU.
//
//numalint:hotpath
func (c *cpu) Wake(target int) {
	//numalint:allow laneescape the wake crossed lanes through the mailbox
	c.wakes = append(c.wakes, target)
	if target < 0 {
		//numalint:allow laneescape the panic used to name the source lane
		panic(fmt.Sprintf("cpu on node %d woke %d", c.node, target))
	}
	if target > 1<<20 {
		//numalint:allow laneescape the panic used to name the source lane
		//numalint:allow hotpath the message is built only on a kernel bug
		panic(fmt.Sprintf("cpu on node %d woke %d", c.node, target))
	}
}
