// Package bad seeds unguarded emitter call sites: argument construction
// that runs even when the instrument is disabled — tracer emits, recorder
// records alike.
package bad

import "ccnuma/internal/obs"

type pager struct {
	Obs *obs.Tracer
}

// Unguarded builds and emits with no branch at all.
func (p *pager) Unguarded(page int64) {
	e := obs.NewEvent(obs.KindPageMigrated)
	e.Page = page
	p.Obs.Emit(e)
}

// WrongBranch emits in the disabled branch of the guard.
func (p *pager) WrongBranch() {
	if !p.Obs.On() {
		p.Obs.EmitNow(obs.NewEvent(obs.KindCounterReset))
	}
}

// LateGuard checks On() only after the emit; the guard clause must precede.
func (p *pager) LateGuard(tr *obs.Tracer) {
	tr.Emit(obs.NewEvent(obs.KindTLBShootdown))
	if !tr.On() {
		return
	}
}

// RecordUnguarded hands the recorder an event with no nil check.
func RecordUnguarded(r *obs.Recorder, page int64) {
	e := obs.NewEvent(obs.KindPageMigrated)
	e.Page = page
	r.Record(e)
}
