package obs

import (
	"bufio"
	"fmt"
	"io"

	"ccnuma/internal/sim"
)

// CPUSample is one CPU's activity during a sampling interval (deltas), plus
// its instantaneous run state.
type CPUSample struct {
	// Busy and Idle are the non-idle and idle virtual time accrued this
	// interval; Pager the pager-handler share of Busy.
	Busy  sim.Time `json:"busy"`
	Idle  sim.Time `json:"idle"`
	Pager sim.Time `json:"pager"`
	// Steps is the number of workload references executed this interval.
	Steps uint64 `json:"steps"`
}

// Sub returns the per-interval delta between cumulative snapshots s and prev.
func (s CPUSample) Sub(prev CPUSample) CPUSample {
	return CPUSample{
		Busy:  s.Busy - prev.Busy,
		Idle:  s.Idle - prev.Idle,
		Pager: s.Pager - prev.Pager,
		Steps: s.Steps - prev.Steps,
	}
}

// NodeSample is one node's instantaneous memory picture.
type NodeSample struct {
	// Free is the node's free-frame count; Base and Replica the allocated
	// frames holding master copies and replicas.
	Free    int `json:"free"`
	Base    int `json:"base"`
	Replica int `json:"replica"`
}

// CounterSample is the directory counting activity during an interval
// (deltas of the cumulative CounterStats).
type CounterSample struct {
	Recorded uint64 `json:"recorded"`
	Counted  uint64 `json:"counted"`
	Hot      uint64 `json:"hot"`
	Resets   uint64 `json:"resets"`
}

// Sub returns the per-interval delta between cumulative snapshots s and prev.
func (s CounterSample) Sub(prev CounterSample) CounterSample {
	return CounterSample{
		Recorded: s.Recorded - prev.Recorded,
		Counted:  s.Counted - prev.Counted,
		Hot:      s.Hot - prev.Hot,
		Resets:   s.Resets - prev.Resets,
	}
}

// Sample is one point of the time-series: engine gauges plus per-CPU,
// per-node, and counter activity at a sampling instant.
type Sample struct {
	At sim.Time `json:"at"`
	// Fired is the cumulative event count; Pending the queue depth now.
	Fired   uint64 `json:"fired"`
	Pending int    `json:"pending"`

	CPU      []CPUSample   `json:"cpu"`
	Node     []NodeSample  `json:"node"`
	Counters CounterSample `json:"counters"`
}

// Sampler accumulates periodic Samples taken by the simulation at a fixed
// virtual-time interval and exports them as CSV.
type Sampler struct {
	// Interval is the virtual-time sampling period.
	Interval sim.Time

	cpus, nodes int
	samples     []Sample
}

// NewSampler builds a sampler for a machine of the given CPU and node
// counts, sampling every interval of virtual time.
func NewSampler(interval sim.Time, cpus, nodes int) *Sampler {
	if interval <= 0 {
		panic("obs: non-positive sampling interval")
	}
	return &Sampler{Interval: interval, cpus: cpus, nodes: nodes}
}

// Add appends one sample. The sample's CPU and Node slices must match the
// sampler's dimensions.
func (s *Sampler) Add(sm Sample) {
	if len(sm.CPU) != s.cpus || len(sm.Node) != s.nodes {
		panic(fmt.Sprintf("obs: sample dims %dx%d, sampler %dx%d",
			len(sm.CPU), len(sm.Node), s.cpus, s.nodes))
	}
	s.samples = append(s.samples, sm)
}

// Len returns the number of samples taken. Safe on nil.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.samples)
}

// Samples returns the accumulated series (shared slice; do not mutate).
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// WriteCSV writes the series with one row per sample: engine gauges and
// counter deltas, then per-CPU busy/idle/pager/steps deltas, then per-node
// free/base/replica frame counts. The header is always written, so an empty
// series still yields a parseable file.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("at_ns,fired,pending,recorded,counted,hot,resets")
	for i := 0; i < s.cpus; i++ {
		fmt.Fprintf(bw, ",cpu%d_busy_ns,cpu%d_idle_ns,cpu%d_pager_ns,cpu%d_steps", i, i, i, i)
	}
	for i := 0; i < s.nodes; i++ {
		fmt.Fprintf(bw, ",node%d_free,node%d_base,node%d_replica", i, i, i)
	}
	bw.WriteByte('\n')
	for _, sm := range s.samples {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d",
			int64(sm.At), sm.Fired, sm.Pending,
			sm.Counters.Recorded, sm.Counters.Counted, sm.Counters.Hot, sm.Counters.Resets)
		for _, c := range sm.CPU {
			fmt.Fprintf(bw, ",%d,%d,%d,%d", int64(c.Busy), int64(c.Idle), int64(c.Pager), c.Steps)
		}
		for _, n := range sm.Node {
			fmt.Fprintf(bw, ",%d,%d,%d", n.Free, n.Base, n.Replica)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
