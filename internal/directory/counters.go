// Package directory models the per-node directory controller (the MAGIC chip
// on FLASH): servicing of cache misses with an occupancy cost, the per-page
// per-processor miss counters the policy is driven by, 1-in-N sampling of
// misses, and the batching of hot pages before a pager interrupt is raised
// (Section 4).
package directory

import (
	"ccnuma/internal/mem"
	"ccnuma/internal/obs"
)

// HotRef identifies a page whose miss counter crossed the trigger threshold,
// and the CPU whose counter crossed it.
type HotRef struct {
	Page mem.GPage
	CPU  mem.CPUID
}

// BatchFunc receives a batch of hot pages; the system schedules the pager
// interrupt on the CPU of the first reference. The batch slice is borrowed:
// it aliases the counters' reusable pending buffer and is only valid for the
// duration of the call, so a callback that queues the work must copy it.
type BatchFunc func(batch []HotRef)

// Counters implements the paper's counting machinery: one saturating miss
// counter per (page, CPU) (the paper's hardware uses 1-byte counters; we
// widen to 16 bits so the Figure-9 trigger-256 sweep is representable), a per-page write counter, a trigger
// threshold, periodic reset, and optional sampling. The same structure is
// fed by cache misses (the FLASH hardware design) or by TLB misses (the
// software alternative of Section 8.3), so policy comparisons between the
// two metrics exercise identical code.
type Counters struct {
	cpus    int
	group   int      // CPUs per shared counter (1 = per-CPU counters)
	groups  int      // number of counter columns per page
	miss    []uint16 // page*groups
	write   []uint16 // per page, saturating
	trigger uint16
	batchN  int

	// Sampling: only one in SampleRate recorded misses increments counters.
	// 1 means full information.
	sampleRate int
	sampleTick int

	pending   []HotRef
	inPending []bool // per page: already queued for the pager
	onBatch   BatchFunc

	// Obs, when enabled, receives a CounterReset event at every reset
	// boundary, stamped with the trigger threshold then in force (it changes
	// under the adaptive-trigger extension).
	Obs *obs.Tracer

	// Statistics.
	recorded uint64 // misses offered
	counted  uint64 // misses that incremented a counter (post-sampling)
	hot      uint64 // trigger crossings queued
	resets   uint64
}

// NewCounters sizes the counter arrays for pages logical pages and cpus
// processors, with the given trigger threshold, interrupt batch size, and
// sampling rate (1 = count every miss, 10 = count one in ten).
func NewCounters(pages, cpus int, trigger uint16, batch, sampleRate int, onBatch BatchFunc) *Counters {
	return NewGroupedCounters(pages, cpus, 1, trigger, batch, sampleRate, onBatch)
}

// NewGroupedCounters builds counters where group CPUs share one counter
// column — the space-reduction option of Section 7.2.1 ("logically grouping
// processors, and keeping a shared counter for the group"). group 1 gives
// per-CPU counters.
func NewGroupedCounters(pages, cpus, group int, trigger uint16, batch, sampleRate int, onBatch BatchFunc) *Counters {
	if trigger == 0 {
		panic("directory: zero trigger threshold")
	}
	if batch <= 0 {
		batch = 1
	}
	if sampleRate <= 0 {
		sampleRate = 1
	}
	if group <= 0 {
		group = 1
	}
	groups := (cpus + group - 1) / group
	return &Counters{
		cpus:       cpus,
		group:      group,
		groups:     groups,
		miss:       make([]uint16, pages*groups),
		write:      make([]uint16, pages),
		trigger:    trigger,
		batchN:     batch,
		sampleRate: sampleRate,
		pending:    make([]HotRef, 0, batch),
		inPending:  make([]bool, pages),
		onBatch:    onBatch,
	}
}

// GroupOf maps a CPU to its counter column.
func (c *Counters) GroupOf(cpu mem.CPUID) int { return int(cpu) / c.group }

// Groups returns the number of counter columns per page.
func (c *Counters) Groups() int { return c.groups }

// Record registers a miss by cpu to page. Sampling is applied here. When the
// page's counter for cpu reaches the trigger threshold the page joins the
// pending batch; when the batch fills, onBatch fires. Only remote misses
// arm the trigger — the home directory sees the requester's identity, and a
// page that is already local to the missing CPU needs no interrupt — but
// all misses are counted, because the sharing decision needs every CPU's
// rate.
func (c *Counters) Record(page mem.GPage, cpu mem.CPUID, isWrite, remote bool) {
	c.recorded++
	if c.sampleRate > 1 {
		c.sampleTick++
		if c.sampleTick < c.sampleRate {
			return
		}
		c.sampleTick = 0
	}
	c.counted++
	if isWrite && c.write[page] < ^uint16(0) {
		c.write[page]++
	}
	idx := int(page)*c.groups + c.GroupOf(cpu)
	if c.miss[idx] < ^uint16(0) {
		c.miss[idx]++
	}
	if remote && c.miss[idx] >= c.trigger && !c.inPending[page] {
		c.inPending[page] = true
		c.hot++
		c.pending = append(c.pending, HotRef{Page: page, CPU: cpu})
		if len(c.pending) >= c.batchN {
			c.FlushPending()
		}
	}
}

// FlushPending delivers any queued hot pages to the batch callback. The
// periodic reset calls it so a partial batch is not held indefinitely. The
// pending buffer itself is handed to the callback (see BatchFunc's borrowing
// contract) and reused for the next batch, so flushing allocates nothing.
func (c *Counters) FlushPending() {
	if len(c.pending) == 0 || c.onBatch == nil {
		return
	}
	batch := c.pending
	c.pending = c.pending[:0]
	for _, h := range batch {
		c.inPending[h.Page] = false
	}
	c.onBatch(batch)
}

// Reset zeroes every miss and write counter (the reset-interval event). Any
// partial pending batch is flushed first.
func (c *Counters) Reset() {
	c.FlushPending()
	for i := range c.miss {
		c.miss[i] = 0
	}
	for i := range c.write {
		c.write[i] = 0
	}
	c.resets++
	if c.Obs.On() {
		e := obs.NewEvent(obs.KindCounterReset)
		e.Trigger = c.trigger
		e.N = int(c.resets)
		c.Obs.EmitNow(e)
	}
}

// Miss returns the current counter for (page, cpu's group).
func (c *Counters) Miss(page mem.GPage, cpu mem.CPUID) uint16 {
	return c.miss[int(page)*c.groups+c.GroupOf(cpu)]
}

// MissRow returns the per-group counters for page (a shared slice; do not
// retain across Record calls). With group size 1 the row is per-CPU.
func (c *Counters) MissRow(page mem.GPage) []uint16 {
	return c.miss[int(page)*c.groups : (int(page)+1)*c.groups]
}

// Writes returns the write counter for page.
func (c *Counters) Writes(page mem.GPage) uint16 { return c.write[page] }

// ClearPage zeroes the page's counters after the pager acted on it, so the
// same interval does not immediately re-trigger.
func (c *Counters) ClearPage(page mem.GPage) {
	row := c.MissRow(page)
	for i := range row {
		row[i] = 0
	}
	c.write[page] = 0
}

// Trigger returns the configured trigger threshold.
func (c *Counters) Trigger() uint16 { return c.trigger }

// SetTrigger changes the trigger threshold (the adaptive-trigger extension
// adjusts it between reset intervals).
func (c *Counters) SetTrigger(t uint16) {
	if t == 0 {
		t = 1
	}
	c.trigger = t
}

// SampleRate returns the configured sampling rate.
func (c *Counters) SampleRate() int { return c.sampleRate }

// CounterStats summarises the counting activity.
type CounterStats struct {
	Recorded uint64 // misses offered to the counters
	Counted  uint64 // misses counted after sampling
	Hot      uint64 // trigger crossings
	Resets   uint64
}

// Stats returns the accumulated counting statistics.
func (c *Counters) Stats() CounterStats {
	return CounterStats{Recorded: c.recorded, Counted: c.counted, Hot: c.hot, Resets: c.resets}
}

// SpaceOverhead returns the fraction of machine memory the counters would
// consume on a real machine with the given bytes of memory per counter
// (Section 7.2.1's space-overhead analysis).
func SpaceOverhead(cpus int, bytesPerCounter float64) float64 {
	perPage := float64(cpus) * bytesPerCounter
	return perPage / float64(mem.PageSize)
}
