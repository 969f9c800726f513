package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the JSON object format of the Trace Event
// specification, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
// Virtual sim.Time is the timebase: ts is microseconds with nanosecond
// precision, so a 100ms simulated run renders as a 100ms trace. Each node is
// a process track and each CPU a thread track within its node; machine-wide
// events (counter resets) land on a synthetic "machine" process, and events
// emitted by kernel subsystems without a CPU context (vm state changes) land
// on a per-node "kernel" thread. All events are instants ("ph":"i"); policy
// decisions carry the counters and thresholds that drove the branch in args.

const (
	// machinePID is the synthetic process id for machine-wide events.
	machinePID = 1 << 16
	// kernelTID is the synthetic thread id for events without a CPU context.
	kernelTID = 1 << 16
)

func chromePID(e Event) int {
	if e.Node >= 0 {
		return e.Node
	}
	return machinePID
}

func chromeTID(e Event) int {
	if e.CPU >= 0 {
		return e.CPU
	}
	return kernelTID
}

// ChromeTS renders nanoseconds as microseconds with three decimals, the
// trace format's unit, without float formatting (byte-deterministic).
func ChromeTS(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// ChromeWriter frames one Chrome trace-event JSON document: the header, one
// record per line separated by commas, and the footer. It is the single
// writer of the format — the simulation's event traces (Log.WriteChromeTrace)
// and the harness's wall-clock span timeline both render through it.
type ChromeWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewChromeWriter starts a trace document on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	return &ChromeWriter{bw: bw, first: true}
}

// Record writes one trace-event object, formatted by format and args.
func (c *ChromeWriter) Record(format string, args ...any) {
	if c.first {
		c.bw.WriteString("\n")
		c.first = false
	} else {
		c.bw.WriteString(",\n")
	}
	fmt.Fprintf(c.bw, format, args...)
}

// ProcessName names a process track.
func (c *ChromeWriter) ProcessName(pid int, name string) {
	c.Record(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name)
}

// ThreadName names a thread track within a process.
func (c *ChromeWriter) ThreadName(pid, tid int, name string) {
	c.Record(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tid, name)
}

// Close writes the footer and flushes.
func (c *ChromeWriter) Close() error {
	c.bw.WriteString("\n]}\n")
	return c.bw.Flush()
}

type track struct{ pid, tid int }

// WriteChromeTrace writes the buffered events as Chrome trace-event JSON.
// Output is byte-deterministic for a deterministic event sequence.
func (l *Log) WriteChromeTrace(w io.Writer) error {
	l.Sort()
	evs := l.Events()

	pids := map[int]bool{}
	tracks := map[track]bool{}
	for _, e := range evs {
		p, d := chromePID(e), chromeTID(e)
		pids[p] = true
		tracks[track{p, d}] = true
	}
	pidList := make([]int, 0, len(pids))
	for p := range pids {
		pidList = append(pidList, p)
	}
	sort.Ints(pidList)
	trackList := make([]track, 0, len(tracks))
	for tr := range tracks {
		trackList = append(trackList, tr)
	}
	sort.Slice(trackList, func(i, j int) bool {
		if trackList[i].pid != trackList[j].pid {
			return trackList[i].pid < trackList[j].pid
		}
		return trackList[i].tid < trackList[j].tid
	})

	cw := NewChromeWriter(w)
	for _, p := range pidList {
		name := fmt.Sprintf("node%d", p)
		if p == machinePID {
			name = "machine"
		}
		cw.ProcessName(p, name)
	}
	for _, tr := range trackList {
		name := fmt.Sprintf("cpu%d", tr.tid)
		if tr.tid == kernelTID {
			name = "kernel"
		}
		cw.ThreadName(tr.pid, tr.tid, name)
	}
	for _, e := range evs {
		cw.Record(`{"name":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{%s}}`,
			e.Kind.String(), ChromeTS(int64(e.At)), chromePID(e), chromeTID(e), chromeArgs(e))
	}
	return cw.Close()
}

// chromeArgs renders the event payload as the args object body, including
// only the fields meaningful for the kind so tooltips stay readable.
func chromeArgs(e Event) string {
	var b []byte
	add := func(format string, args ...any) {
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	if e.Page >= 0 {
		add(`"page":%d`, e.Page)
	}
	if e.From >= 0 {
		add(`"from":%d`, e.From)
	}
	if e.To >= 0 {
		add(`"to":%d`, e.To)
	}
	if e.Action != "" {
		add(`"action":%q`, e.Action)
	}
	if e.Reason != "" {
		add(`"reason":%q`, e.Reason)
	}
	if e.Kind == KindPolicyDecision {
		add(`"miss":%d,"miss_other":%d,"writes":%d`, e.Miss, e.MissOther, e.Writes)
	}
	if e.Trigger > 0 {
		add(`"trigger":%d,"sharing":%d`, e.Trigger, e.Sharing)
	}
	if e.N > 0 {
		add(`"n":%d`, e.N)
	}
	if e.Dur > 0 {
		add(`"dur_ns":%d`, int64(e.Dur))
	}
	return string(b)
}
