package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeRequest decodes body as handleRun does.
func decodeRequest(body []byte) (Request, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&r)
	return r, err
}

// built is what a request's key must pin down: the run Build assembles.
type built struct {
	workload    string
	scale       float64
	fingerprint string
}

// checkRequest decodes body and holds normalize to Build: normalize errs
// exactly when Build does, with the same error, and a request builds the
// same run as its normalized self. It returns the request's key and run,
// or ok false for a body either step rejects.
func checkRequest(t *testing.T, body []byte) (key string, run built, ok bool) {
	r, err := decodeRequest(body)
	if err != nil {
		return "", built{}, false
	}
	n := r
	nerr := n.normalize()
	job, berr := r.Build()
	if (nerr == nil) != (berr == nil) || (nerr != nil && nerr.Error() != berr.Error()) {
		t.Fatalf("%s: normalize error %v, Build error %v", body, nerr, berr)
	}
	if nerr != nil {
		return "", built{}, false
	}
	run = built{n.Workload, n.Scale, job.Opt.Fingerprint()}

	again := n
	if err := again.normalize(); err != nil {
		t.Fatalf("%s: normalizing twice: %v", body, err)
	}
	if again.key() != n.key() {
		t.Fatalf("%s: normalize is not idempotent: %q then %q", body, n.key(), again.key())
	}
	njob, err := n.Build()
	if err != nil {
		t.Fatalf("%s: the normalized request fails to build: %v", body, err)
	}
	if njob.Opt.Fingerprint() != run.fingerprint || njob.Label != job.Label {
		t.Fatalf("%s: the normalized request builds a different run", body)
	}
	return n.key(), run, true
}

// FuzzRequest feeds arbitrary bodies to the request path the server and
// numasim share: decoding, normalize and Build must never panic, must agree
// on what is a 400, and two requests with equal cache keys must build the
// same run (workload, scale and options fingerprint) — a key may split what
// fingerprints merge, never merge what they split.
func FuzzRequest(f *testing.F) {
	f.Add([]byte(`{"workload":"engineering"}`),
		[]byte(`{"workload":"engineering","policy":"migrep","config":"ccnuma","metric":"fc","scale":1,"seed":42}`))
	// Scales that once built the smallest workload without a word: JSON
	// spells no NaN or infinity, so those two fail to decode, and 1e300 must
	// fail normalize.
	f.Add([]byte(`{"workload":"engineering","scale":NaN}`), []byte(`{"workload":"engineering","scale":1e300}`))
	f.Add([]byte(`{"workload":"engineering","scale":1e400}`), []byte(`{"workload":"engineering","scale":-1e400}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ka, runA, okA := checkRequest(t, a)
		kb, runB, okB := checkRequest(t, b)
		if okA && okB && ka == kb && runA != runB {
			t.Fatalf("%s and %s share key %q but build different runs:\n%+v\n%+v", a, b, ka, runA, runB)
		}
	})
}
