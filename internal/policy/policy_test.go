package policy

import (
	"testing"
	"testing/quick"

	"ccnuma/internal/sim"
)

func row(vals ...uint16) []uint16 { return vals }

func TestWithSharingFraction(t *testing.T) {
	p := Base().WithTrigger(96)
	if q := p.WithSharingFraction(8); q.Sharing != 12 {
		t.Fatalf("96/8: sharing = %d, want 12", q.Sharing)
	}
	if q := p.WithSharingFraction(2); q.Sharing != 48 {
		t.Fatalf("96/2: sharing = %d, want 48", q.Sharing)
	}
	// The clamp: a fraction larger than the trigger must not produce the
	// invalid Sharing == 0.
	low := Base().WithTrigger(2)
	if q := low.WithSharingFraction(8); q.Sharing != 1 {
		t.Fatalf("2/8: sharing = %d, want clamped 1", q.Sharing)
	}
	if q := low.WithSharingFraction(0); q.Sharing != 2 {
		t.Fatalf("frac 0 treated as 1: sharing = %d, want 2", q.Sharing)
	}
	// WithTrigger derives its threshold through the same helper.
	if p.Sharing != p.WithSharingFraction(4).Sharing {
		t.Fatalf("WithTrigger coupling drifted: %d vs %d", p.Sharing, p.WithSharingFraction(4).Sharing)
	}
	if err := low.WithSharingFraction(8).Validate(); err != nil {
		t.Fatalf("clamped params invalid: %v", err)
	}
}

func TestBaseParamsMatchPaper(t *testing.T) {
	p := Base()
	if p.Trigger != 128 || p.Sharing != 32 || p.Write != 1 || p.Migrate != 1 {
		t.Fatalf("base params = %+v", p)
	}
	if p.ResetInterval != 100*sim.Millisecond {
		t.Fatalf("reset interval = %v, want 100ms", p.ResetInterval)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithTriggerCouplesSharing(t *testing.T) {
	for _, trig := range []uint16{32, 64, 96, 128, 256} {
		p := Base().WithTrigger(trig)
		if p.Trigger != trig || p.Sharing != trig/4 {
			t.Fatalf("WithTrigger(%d) = %+v", trig, p)
		}
	}
	if p := Base().WithTrigger(2); p.Sharing != 1 {
		t.Fatal("tiny trigger should floor sharing at 1")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []Params{
		{Trigger: 0, Sharing: 1, ResetInterval: 1, EnableMigration: true},
		{Trigger: 10, Sharing: 0, ResetInterval: 1, EnableMigration: true},
		{Trigger: 10, Sharing: 20, ResetInterval: 1, EnableMigration: true},
		{Trigger: 10, Sharing: 5, ResetInterval: 0, EnableMigration: true},
		{Trigger: 10, Sharing: 5, ResetInterval: 1},
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestDecideUnsharedRemoteMigrates(t *testing.T) {
	p := Base()
	d := Decide(p, row(0, 200, 0, 0), 0, 1, PageState{})
	if d.Action != MigratePage {
		t.Fatalf("decision = %+v, want migrate", d)
	}
}

func TestDecideSharedReadMostlyReplicates(t *testing.T) {
	p := Base()
	// CPU 1 hot, CPU 3 above the sharing threshold, writes below threshold.
	d := Decide(p, row(0, 200, 0, 40), 1, 1, PageState{})
	if d.Action != ReplicatePage {
		t.Fatalf("decision = %+v, want replicate", d)
	}
}

func TestDecideWriteSharedDoesNothing(t *testing.T) {
	p := Base()
	d := Decide(p, row(0, 200, 0, 40), 5, 1, PageState{})
	if d.Action != DoNothing || d.Reason != ReasonWriteShared {
		t.Fatalf("decision = %+v, want write-shared no-op", d)
	}
}

func TestDecideLocalPageDoesNothing(t *testing.T) {
	d := Decide(Base(), row(200), 0, 0, PageState{Local: true})
	if d.Action != DoNothing || d.Reason != ReasonLocal {
		t.Fatalf("decision = %+v", d)
	}
}

func TestDecideRemapWhenLocalCopyExists(t *testing.T) {
	d := Decide(Base(), row(200), 0, 0, PageState{HasLocalCopy: true})
	if d.Action != RemapPage {
		t.Fatalf("decision = %+v, want remap", d)
	}
}

func TestDecideFrozenPageNotMigrated(t *testing.T) {
	d := Decide(Base(), row(0, 200), 0, 1, PageState{MigCount: 2})
	if d.Action != DoNothing || d.Reason != ReasonFrozen {
		t.Fatalf("decision = %+v, want frozen", d)
	}
	// At exactly the threshold (1), migration is still allowed.
	d = Decide(Base(), row(0, 200), 0, 1, PageState{MigCount: 1})
	if d.Action != MigratePage {
		t.Fatalf("decision at threshold = %+v, want migrate", d)
	}
}

func TestDecideWiredPage(t *testing.T) {
	d := Decide(Base(), row(0, 200), 0, 1, PageState{Wired: true})
	if d.Action != DoNothing || d.Reason != ReasonWired {
		t.Fatalf("decision = %+v, want wired no-op", d)
	}
}

func TestDecidePressureSuppressesReplication(t *testing.T) {
	d := Decide(Base(), row(0, 200, 0, 40), 0, 1, PageState{Pressure: true})
	if d.Action != DoNothing || d.Reason != ReasonNoPage {
		t.Fatalf("decision = %+v, want pressure no-op", d)
	}
}

func TestDecideMechanismToggles(t *testing.T) {
	mo := Base().MigrationOnly()
	d := Decide(mo, row(0, 200, 0, 40), 0, 1, PageState{})
	if d.Action != DoNothing || d.Reason != ReasonDisabled {
		t.Fatalf("migration-only on shared page = %+v", d)
	}
	if d := Decide(mo, row(0, 200, 0, 0), 0, 1, PageState{}); d.Action != MigratePage {
		t.Fatalf("migration-only on private page = %+v", d)
	}
	ro := Base().ReplicationOnly()
	if d := Decide(ro, row(0, 200, 0, 0), 0, 1, PageState{}); d.Action != DoNothing {
		t.Fatalf("replication-only on private page = %+v", d)
	}
	if d := Decide(ro, row(0, 200, 0, 40), 0, 1, PageState{}); d.Action != ReplicatePage {
		t.Fatalf("replication-only on shared page = %+v", d)
	}
}

func TestDecideReplicatedUnsharedNotMigrated(t *testing.T) {
	// Sharers went quiet: the replicated page must not be migrated while
	// replicas exist.
	d := Decide(Base(), row(0, 200, 0, 0), 0, 1, PageState{Replicated: true})
	if d.Action == MigratePage {
		t.Fatalf("replicated page migrated: %+v", d)
	}
}

func TestDecideIsPure(t *testing.T) {
	p := Base()
	r := row(0, 200, 0, 40)
	st := PageState{}
	d1 := Decide(p, r, 0, 1, st)
	d2 := Decide(p, r, 0, 1, st)
	if d1 != d2 {
		t.Fatal("Decide is not deterministic")
	}
}

// Property: Decide never migrates when migration is disabled, never
// replicates when replication is disabled, and never acts on wired or local
// pages.
func TestDecideRespectsConstraintsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		for i := 0; i < 200; i++ {
			p := Base().WithTrigger(uint16(32 + r.Intn(224)))
			p.EnableMigration = r.Bool(0.7)
			p.EnableReplication = r.Bool(0.7)
			if !p.EnableMigration && !p.EnableReplication {
				p.EnableMigration = true
			}
			row := make([]uint16, 8)
			for j := range row {
				row[j] = uint16(r.Intn(400))
			}
			st := PageState{
				Local:      r.Bool(0.2),
				Replicated: r.Bool(0.2),
				MigCount:   uint8(r.Intn(4)),
				Wired:      r.Bool(0.1),
				Pressure:   r.Bool(0.2),
			}
			d := Decide(p, row, uint16(r.Intn(8)), r.Intn(8), st)
			switch {
			case d.Action == MigratePage && (!p.EnableMigration || st.Wired || st.Local || st.Replicated || uint16(st.MigCount) > p.Migrate):
				return false
			case d.Action == ReplicatePage && (!p.EnableReplication || st.Wired || st.Local || st.Pressure):
				return false
			case st.Wired && d.Action != DoNothing:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestActionStatsPercent(t *testing.T) {
	var s ActionStats
	s.Record(Decision{Action: MigratePage, Reason: ReasonActed}, false)
	s.Record(Decision{Action: ReplicatePage, Reason: ReasonActed}, false)
	s.Record(Decision{Action: DoNothing, Reason: ReasonWriteShared}, false)
	s.Record(Decision{Action: ReplicatePage, Reason: ReasonActed}, true) // no page
	mig, rep, none, nopage := s.Percent()
	if mig != 25 || rep != 25 || none != 25 || nopage != 25 {
		t.Fatalf("percentages = %v %v %v %v", mig, rep, none, nopage)
	}
	if s.HotPages != 4 {
		t.Fatalf("hot pages = %d", s.HotPages)
	}
}

func TestActionNames(t *testing.T) {
	if MigratePage.String() != "migrate" || ReplicatePage.String() != "replicate" ||
		RemapPage.String() != "remap" || DoNothing.String() != "nothing" {
		t.Fatal("action names wrong")
	}
	for r := ReasonActed; r <= ReasonNoPage; r++ {
		if r.String() == "unknown" {
			t.Fatalf("reason %d unnamed", r)
		}
	}
}

func TestScaledForSampling(t *testing.T) {
	p := Base() // trigger 128, sharing 32, write 1
	s := p.ScaledForSampling(10)
	if s.Trigger != 12 || s.Sharing != 3 {
		t.Fatalf("scaled params = %+v", s)
	}
	if s.Write != 1 {
		t.Fatalf("write threshold must not scale below 1: %d", s.Write)
	}
	if same := p.ScaledForSampling(1); same != p {
		t.Fatal("rate 1 must be a no-op")
	}
	tiny := Params{Trigger: 4, Sharing: 4, Write: 20, Migrate: 1,
		ResetInterval: 1, EnableMigration: true}.ScaledForSampling(10)
	if tiny.Trigger != 1 || tiny.Sharing != 1 || tiny.Write != 2 {
		t.Fatalf("floors wrong: %+v", tiny)
	}
}

func TestMigrateWriteSharedDecision(t *testing.T) {
	p := Base()
	p.MigrateWriteShared = true
	// Hot CPU 1 is the heaviest writer of a write-shared page: migrate.
	d := Decide(p, row(0, 200, 100, 0), 5, 1, PageState{})
	if d.Action != MigratePage {
		t.Fatalf("decision = %+v, want migrate", d)
	}
	// Hot CPU 1 is not the heaviest: decline.
	d = Decide(p, row(0, 150, 220, 0), 5, 1, PageState{})
	if d.Action != DoNothing || d.Reason != ReasonWriteShared {
		t.Fatalf("decision = %+v, want write-shared no-op", d)
	}
	// Replicated write-shared pages are never chased.
	d = Decide(p, row(0, 200, 100, 0), 5, 1, PageState{Replicated: true})
	if d.Action == MigratePage {
		t.Fatalf("replicated page migrated: %+v", d)
	}
}

func TestDisableRemapDecision(t *testing.T) {
	p := Base()
	p.DisableRemap = true
	d := Decide(p, row(200), 0, 0, PageState{HasLocalCopy: true})
	if d.Action != DoNothing || d.Reason != ReasonLocal {
		t.Fatalf("decision = %+v, want the paper's stale-pte behaviour", d)
	}
}

// TestObserveDecisionDisabledIsNoOp: with tracing off, ObserveDecision
// builds and emits nothing (a nil tracer's Emit would panic if it did).
func TestObserveDecisionDisabledIsNoOp(t *testing.T) {
	ObserveDecision(nil, 0, 0, 0, 1, Base(), []uint16{3, 1}, 0, 0, Decision{Action: DoNothing})
}
