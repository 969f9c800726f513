// Package good holds the guarded emit patterns tracerguard must accept:
// the enclosing On() branch, the early-return guard clause, and an explicit
// nil comparison — for the tracer and the recorder.
package good

import "ccnuma/internal/obs"

type pager struct {
	Obs *obs.Tracer
}

// Branch wraps construction and emit in an On() branch.
func (p *pager) Branch(page int64) {
	if p.Obs.On() {
		e := obs.NewEvent(obs.KindPageMigrated)
		e.Page = page
		p.Obs.Emit(e)
	}
}

// Clause guards with an early return, the helper-function shape.
func Clause(tr *obs.Tracer, n int) {
	if !tr.On() {
		return
	}
	e := obs.NewEvent(obs.KindCounterReset)
	e.N = n
	tr.EmitNow(e)
}

// NilCheck guards with an explicit comparison inside a compound condition.
func NilCheck(tr *obs.Tracer, emit bool) {
	if tr != nil && emit {
		tr.Emit(obs.NewEvent(obs.KindTLBShootdown))
	}
}

// RecordGuarded keeps the recorder behind its On() branch.
func RecordGuarded(r *obs.Recorder, page int64) {
	if r.On() {
		e := obs.NewEvent(obs.KindPageMigrated)
		e.Page = page
		r.Record(e)
	}
}

// RecordInitGuarded proves the recorder non-nil in an if-statement's init
// clause before recording.
func RecordInitGuarded(r *obs.Recorder, page int64) {
	if rr := r; rr != nil {
		e := obs.NewEvent(obs.KindPageMigrated)
		e.Page = page
		rr.Record(e)
	}
}
