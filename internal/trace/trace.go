// Package trace defines the miss-trace format of Section 8: the paper
// non-intrusively records every second-level cache miss and every TLB miss
// (processor, page, read/write, user/kernel, timestamp) and drives a policy
// simulator from the traces. This package provides the record type, a
// compact binary encoding, and the read-chain analysis of Figure 4.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// Source distinguishes the two miss streams in a trace.
type Source uint8

const (
	// CacheMiss records a second-level cache miss.
	CacheMiss Source = iota
	// TLBMiss records a TLB miss.
	TLBMiss
)

// Record is one miss event.
type Record struct {
	At     sim.Time
	Page   mem.GPage
	CPU    mem.CPUID
	Kind   mem.AccessKind
	Kernel bool
	Src    Source
}

// Trace is an in-memory miss trace, ordered by time.
type Trace struct {
	Records []Record
}

// WithCapacity returns an empty trace whose record buffer holds n records
// before growing. Callers that can bound the expected record volume (the
// machine simulator knows its step budget) avoid repeated re-allocation of a
// multi-megabyte buffer during the run.
func WithCapacity(n int) *Trace {
	if n < 0 {
		n = 0
	}
	return &Trace{Records: make([]Record, 0, n)}
}

// Append adds a record. It rides the simulator's miss path, so the record
// buffer is preallocated by run scale (WithCapacity) and reused in place.
func (t *Trace) Append(r Record) { t.Records = append(t.Records, r) }

// Sort orders the records by time (stable). The machine simulator emits
// records per-CPU in slices, so cross-CPU ordering needs one final sort.
func (t *Trace) Sort() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].At < t.Records[j].At
	})
}

// Len returns the record count.
func (t *Trace) Len() int { return len(t.Records) }

// Filter returns the records matching keep, preserving order.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := &Trace{}
	for _, r := range t.Records {
		if keep(r) {
			out.Append(r)
		}
	}
	return out
}

// CacheMisses returns only the cache-miss records.
func (t *Trace) CacheMisses() *Trace {
	return t.Filter(func(r Record) bool { return r.Src == CacheMiss })
}

// TLBMisses returns only the TLB-miss records.
func (t *Trace) TLBMisses() *Trace {
	return t.Filter(func(r Record) bool { return r.Src == TLBMiss })
}

// KernelOnly returns only kernel-mode records (the Section 8.2 study).
func (t *Trace) KernelOnly() *Trace {
	return t.Filter(func(r Record) bool { return r.Kernel })
}

// UserOnly returns only user-mode records.
func (t *Trace) UserOnly() *Trace {
	return t.Filter(func(r Record) bool { return !r.Kernel })
}

// Duration returns the time of the last record (traces start at 0).
func (t *Trace) Duration() sim.Time {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At
}

// MaxPage returns the highest page id referenced plus one (a table size).
func (t *Trace) MaxPage() int {
	max := mem.GPage(0)
	for _, r := range t.Records {
		if r.Page > max {
			max = r.Page
		}
	}
	if len(t.Records) == 0 {
		return 0
	}
	return int(max) + 1
}

// MaxPages bounds the page ids a trace may name. Policy simulation sizes its
// tables by the largest id, so one corrupt record must not size them at
// 2^32 pages. 2^20 pages is 4 GB of logical memory at 4 KB pages, about 400
// times the largest paper workload at full scale.
const MaxPages = 1 << 20

// Validate checks what policy simulation of the trace on a machine of cpus
// processors relies on: every page id below MaxPages, every CPU below cpus,
// and record times non-negative and non-decreasing.
func (t *Trace) Validate(cpus int) error {
	var prev sim.Time
	for i, r := range t.Records {
		if r.Page >= MaxPages {
			return fmt.Errorf("trace: record %d names page %#x, above the bound of %#x", i, uint32(r.Page), MaxPages)
		}
		if r.CPU < 0 || int(r.CPU) >= cpus {
			return fmt.Errorf("trace: record %d names CPU %d, but the machine has %d CPUs", i, r.CPU, cpus)
		}
		if r.At < prev {
			return fmt.Errorf("trace: record %d at %d ns precedes the time before it (%d ns); records must be in time order", i, int64(r.At), int64(prev))
		}
		prev = r.At
	}
	return nil
}

const recordSize = 16

func encode(buf []byte, r Record) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.At))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(r.Page))
	buf[12] = byte(r.CPU)
	flags := byte(r.Kind) & 0x3
	if r.Kernel {
		flags |= 1 << 2
	}
	if r.Src == TLBMiss {
		flags |= 1 << 3
	}
	buf[13] = flags
	buf[14], buf[15] = 0, 0
}

func decode(buf []byte) Record {
	r := Record{
		At:   sim.Time(binary.LittleEndian.Uint64(buf[0:8])),
		Page: mem.GPage(binary.LittleEndian.Uint32(buf[8:12])),
		CPU:  mem.CPUID(buf[12]),
	}
	flags := buf[13]
	r.Kind = mem.AccessKind(flags & 0x3)
	r.Kernel = flags&(1<<2) != 0
	if flags&(1<<3) != 0 {
		r.Src = TLBMiss
	}
	return r
}

// Write encodes the trace to w in the 16-byte binary record format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf [recordSize]byte
	for _, r := range t.Records {
		encode(buf[:], r)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	var buf [recordSize]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: short record: %w", err)
		}
		t.Append(decode(buf[:]))
	}
}
