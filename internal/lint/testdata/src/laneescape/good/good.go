// Package good is the same hot-path wake code with the retired
// suppressions removed and the one audited hotpath allow kept.
package good

import "fmt"

type cpu struct {
	node  int
	wakes []int
}

// Wake queues a wake-up for a CPU.
//
//numalint:hotpath
func (c *cpu) Wake(target int) {
	c.wakes = append(c.wakes, target)
	if target < 0 || target > 1<<20 {
		//numalint:allow hotpath the message is built only on a kernel bug
		panic(fmt.Sprintf("cpu on node %d woke %d", c.node, target))
	}
}
