// Package policy implements the paper's page migration/replication policy:
// the Figure-1 decision tree driven by the Table-1 parameters. The decision
// is a pure function of the page's counters and placement state, so the same
// engine drives both the full-system kernel (internal/kernel/pager) and the
// trace-driven simulator of Section 8 (internal/tracesim).
package policy

import (
	"fmt"

	"ccnuma/internal/sim"
)

// Params are the policy parameters of Table 1. Rates are approximated by
// counters that are zeroed every ResetInterval.
type Params struct {
	// Trigger is the per-(page,cpu) miss count that makes a page hot.
	Trigger uint16
	// Sharing: if any *other* processor's miss counter has reached this, the
	// page is considered shared and becomes a replication candidate.
	Sharing uint16
	// Write: a page whose write counter exceeds this is not replicated.
	Write uint16
	// Migrate: a page migrated more than this many times in the interval is
	// not migrated again (freezing).
	Migrate uint16
	// ResetInterval is the counter reset period.
	ResetInterval sim.Time

	// EnableMigration / EnableReplication select the Migr-only, Repl-only,
	// and combined Mig/Rep policies of Section 8.1.
	EnableMigration   bool
	EnableReplication bool

	// MigrateWriteShared implements the extension the paper sketches in
	// Section 7.1.2: write-shared pages cannot be replicated, but migrating
	// them toward the heaviest writer diffuses memory-system hotspots.
	MigrateWriteShared bool
	// DisableRemap reproduces the limitation the paper describes for the
	// Splash workload: a process moved to a node that already holds a
	// replica keeps using its old remote copy ("the process will not pick
	// up the new replica"). Our base policy fixes this with a cheap pte
	// remap; disabling it shows the cost of the paper's behaviour.
	DisableRemap bool
}

// Base returns the paper's base policy: trigger 128, sharing = trigger/4,
// write and migrate thresholds 1, reset interval 100 ms, both mechanisms
// enabled. (The engineering workload used trigger 96; pass a different
// trigger where needed.)
func Base() Params {
	return Params{
		Trigger:           128,
		Sharing:           32,
		Write:             1,
		Migrate:           1,
		ResetInterval:     100 * sim.Millisecond,
		EnableMigration:   true,
		EnableReplication: true,
	}
}

// WithTrigger returns p with the trigger threshold set to t and the sharing
// threshold to t/4 (the coupling used throughout the paper's experiments).
func (p Params) WithTrigger(t uint16) Params {
	p.Trigger = t
	return p.WithSharingFraction(4)
}

// WithSharingFraction returns p with the sharing threshold set to
// Trigger/frac, clamped to at least 1 so the parameters stay valid at small
// triggers. This is the single home of the clamp: WithTrigger and the
// Section-8.4 sharing sweep both derive the threshold through it.
func (p Params) WithSharingFraction(frac uint16) Params {
	if frac == 0 {
		frac = 1
	}
	p.Sharing = p.Trigger / frac
	if p.Sharing == 0 {
		p.Sharing = 1
	}
	return p
}

// ScaledForSampling divides the counter-compared thresholds by the
// sampling rate: with 1-in-N counting, a sampled counter of trigger/N
// approximates the same miss rate as a full counter of trigger (Section
// 8.3's SC and ST metrics).
func (p Params) ScaledForSampling(rate int) Params {
	if rate <= 1 {
		return p
	}
	div := func(v uint16) uint16 {
		v /= uint16(rate)
		if v == 0 {
			v = 1
		}
		return v
	}
	p.Trigger = div(p.Trigger)
	p.Sharing = div(p.Sharing)
	// The write threshold guards correctness-adjacent behaviour (collapse
	// storms); with threshold 1 it cannot scale below 1 and stays as is.
	if p.Write > 1 {
		p.Write = div(p.Write)
	}
	return p
}

// MigrationOnly returns p restricted to migration.
func (p Params) MigrationOnly() Params {
	p.EnableMigration, p.EnableReplication = true, false
	return p
}

// ReplicationOnly returns p restricted to replication.
func (p Params) ReplicationOnly() Params {
	p.EnableMigration, p.EnableReplication = false, true
	return p
}

// Validate reports the first parameter inconsistency.
func (p Params) Validate() error {
	switch {
	case p.Trigger == 0:
		return fmt.Errorf("policy: zero trigger threshold")
	case p.Sharing == 0:
		return fmt.Errorf("policy: zero sharing threshold")
	case p.Sharing > p.Trigger:
		return fmt.Errorf("policy: sharing threshold %d above trigger %d", p.Sharing, p.Trigger)
	case p.ResetInterval <= 0:
		return fmt.Errorf("policy: non-positive reset interval")
	case !p.EnableMigration && !p.EnableReplication:
		return fmt.Errorf("policy: both mechanisms disabled")
	}
	return nil
}

// Action is the decision for a hot page.
type Action int

const (
	// DoNothing: the decision tree declined to move the page.
	DoNothing Action = iota
	// MigratePage: move the master to the hot CPU's node.
	MigratePage
	// ReplicatePage: create a copy on the hot CPU's node.
	ReplicatePage
	// RemapPage: a copy already exists on the hot CPU's node; just point the
	// faulting process's pte at it.
	RemapPage
)

// String names the action.
func (a Action) String() string {
	switch a {
	case MigratePage:
		return "migrate"
	case ReplicatePage:
		return "replicate"
	case RemapPage:
		return "remap"
	default:
		return "nothing"
	}
}

// Reason explains a DoNothing decision (Table 4's breakdown).
type Reason int

const (
	// ReasonActed: an action was taken (not a no-op).
	ReasonActed Reason = iota
	// ReasonLocal: the hot CPU's mapping is already local.
	ReasonLocal
	// ReasonWriteShared: the page is shared but written too often.
	ReasonWriteShared
	// ReasonFrozen: the page migrated too often this interval.
	ReasonFrozen
	// ReasonWired: the page is kernel-wired.
	ReasonWired
	// ReasonDisabled: the mechanism the tree chose is disabled.
	ReasonDisabled
	// ReasonNoPage: no frame was available on the destination node. This is
	// determined by the pager after the decision; it appears here so Table 4
	// accounting lives in one place.
	ReasonNoPage
	// ReasonThrottled: the pager shed the batch because its overhead
	// exceeded the kernel-overhead budget (fault layer's degradation
	// response); the decision tree never ran.
	ReasonThrottled
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonActed:
		return "acted"
	case ReasonLocal:
		return "already-local"
	case ReasonWriteShared:
		return "write-shared"
	case ReasonFrozen:
		return "frozen"
	case ReasonWired:
		return "wired"
	case ReasonDisabled:
		return "disabled"
	case ReasonNoPage:
		return "no-page"
	case ReasonThrottled:
		return "throttled"
	default:
		return "unknown"
	}
}

// PageState is the placement information the decision needs, supplied by the
// kernel (full-system) or by the trace simulator's placement tables.
type PageState struct {
	// Local reports whether the hot CPU's current mapping is already local.
	Local bool
	// HasLocalCopy reports whether a copy exists on the hot CPU's node even
	// if this process's mapping points elsewhere (the remap case).
	HasLocalCopy bool
	// Replicated reports whether the page currently has replicas.
	Replicated bool
	// MigCount is the page's migration count this interval.
	MigCount uint8
	// Wired excludes the page from any action.
	Wired bool
	// Pressure reports memory pressure on the destination node; replication
	// is suppressed under pressure.
	Pressure bool
}

// Decision is the policy's verdict for one hot page.
type Decision struct {
	Action Action
	Reason Reason
}

// Decide runs the Figure-1 decision tree for a page that went hot on cpu.
// missRow holds the per-CPU miss counters for the page, writes its write
// counter, hot the index of the triggering CPU.
func Decide(p Params, missRow []uint16, writes uint16, hot int, st PageState) Decision {
	if st.Wired {
		return Decision{DoNothing, ReasonWired}
	}
	// Node 1 follow-up (Section 4): action only if the page is remote to the
	// triggering CPU.
	if st.Local {
		return Decision{DoNothing, ReasonLocal}
	}
	if st.HasLocalCopy {
		if p.DisableRemap {
			// The paper's implementation: the stale pte persists until the
			// page goes hot again and the whole operation re-runs.
			return Decision{DoNothing, ReasonLocal}
		}
		// A copy is already on this node; the process just hasn't picked it
		// up (the Splash limitation the paper describes). Remap the pte.
		return Decision{RemapPage, ReasonActed}
	}
	// Node 2: sharing test — does any other processor miss on this page at a
	// rate above the sharing threshold?
	shared := st.Replicated // an existing replica set implies read sharing
	for c, n := range missRow {
		if c != hot && n >= p.Sharing {
			shared = true
			break
		}
	}
	if shared {
		// Node 3a: replication branch.
		if !p.EnableReplication {
			return Decision{DoNothing, ReasonDisabled}
		}
		if writes > p.Write {
			if p.MigrateWriteShared && p.EnableMigration && !st.Replicated &&
				uint16(st.MigCount) <= p.Migrate && hottest(missRow) == hot {
				// Hotspot diffusion: move the page to its heaviest missing
				// processor instead of leaving it on a congested home.
				return Decision{MigratePage, ReasonActed}
			}
			return Decision{DoNothing, ReasonWriteShared}
		}
		if st.Pressure {
			return Decision{DoNothing, ReasonNoPage}
		}
		return Decision{ReplicatePage, ReasonActed}
	}
	// Node 3b: migration branch.
	if !p.EnableMigration {
		return Decision{DoNothing, ReasonDisabled}
	}
	if uint16(st.MigCount) > p.Migrate {
		return Decision{DoNothing, ReasonFrozen}
	}
	if st.Replicated {
		// Unshared but replicated (sharers went quiet): leave it to the
		// collapse path rather than migrating a chain.
		return Decision{DoNothing, ReasonFrozen}
	}
	return Decision{MigratePage, ReasonActed}
}

// hottest returns the index of the largest counter in the row.
func hottest(row []uint16) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// ActionStats accumulates the Table-4 breakdown.
type ActionStats struct {
	HotPages   uint64 // hot-page events processed
	Migrations uint64
	Replicas   uint64
	Remaps     uint64
	NoAction   uint64
	NoPage     uint64 // allocation failed on the destination node
	Collapses  uint64 // write-trap collapses (not part of Table 4)
	// ByReason breaks down DoNothing decisions (indexed by Reason; sized for
	// every declared reason, ReasonActed through ReasonThrottled).
	ByReason [ReasonThrottled + 1]uint64
}

// Record tallies a decision outcome. noPage overrides the decision when the
// pager could not allocate.
func (s *ActionStats) Record(d Decision, noPage bool) {
	s.HotPages++
	if noPage {
		s.NoPage++
		return
	}
	switch d.Action {
	case MigratePage:
		s.Migrations++
	case ReplicatePage:
		s.Replicas++
	case RemapPage:
		s.Remaps++
	default:
		s.ByReason[d.Reason]++
		if d.Reason == ReasonNoPage {
			s.NoPage++
		} else {
			s.NoAction++
		}
	}
}

// Percent returns the Table-4 percentages: migrate, replicate, no-action,
// no-page. Remaps are folded into no-action (the paper's implementation
// lacked the remap optimisation; see DESIGN.md).
func (s ActionStats) Percent() (mig, rep, none, nopage float64) {
	if s.HotPages == 0 {
		return 0, 0, 0, 0
	}
	t := float64(s.HotPages)
	return 100 * float64(s.Migrations) / t,
		100 * float64(s.Replicas) / t,
		100 * float64(s.NoAction+s.Remaps) / t,
		100 * float64(s.NoPage) / t
}

// Metric selects the information source that drives the policy's counters
// (Section 8.3), in the full-system runs and the trace simulator alike.
type Metric int

const (
	// FullCache counts every second-level cache miss (FLASH hardware).
	FullCache Metric = iota
	// SampledCache counts one cache miss in ten.
	SampledCache
	// FullTLB counts every TLB miss (software-reloaded TLBs).
	FullTLB
	// SampledTLB counts one TLB miss in ten.
	SampledTLB
)

// String names the metric as in Figure 8.
func (m Metric) String() string {
	switch m {
	case FullCache:
		return "FC"
	case SampledCache:
		return "SC"
	case FullTLB:
		return "FT"
	case SampledTLB:
		return "ST"
	default:
		return "?"
	}
}

// CacheDriven reports whether the metric counts cache misses.
func (m Metric) CacheDriven() bool { return m == FullCache || m == SampledCache }

// SampleRate returns the counting sample rate for the metric.
func (m Metric) SampleRate() int {
	if m == SampledCache || m == SampledTLB {
		return 10
	}
	return 1
}
