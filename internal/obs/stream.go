package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// StreamWriter renders events as NDJSON — one JSON object per line, the same
// shape Log.WriteJSONL produces — as they arrive, instead of buffering a run's
// worth. It is the wire format of numasimd's progress streams: pass Sink()
// as a tracer output (core.Options.EventSink) and each emitted event
// becomes one line on the connection while the simulation is still running.
//
// The writer is safe for concurrent use. The simulation emits from a single
// goroutine, but the serving layer may interleave its own marker lines
// (WriteValue) from the request goroutine, and a write error must be readable
// after the run from whichever goroutine handles the response.
type StreamWriter struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewStreamWriter builds a writer emitting NDJSON lines to w. Each line is
// written as it is produced — no internal buffering — so a consumer reading
// the stream sees events live; wrap w if batching is wanted.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, enc: json.NewEncoder(w)}
}

// Sink returns the writer as a tracer output (core.Options.EventSink).
func (s *StreamWriter) Sink() func(Event) {
	return func(e Event) { s.WriteValue(e) }
}

// WriteValue encodes one value as an NDJSON line. After the first write
// error the writer goes quiet and retains the error for Err — a consumer
// that hung up must not turn every later event into a fresh failure.
func (s *StreamWriter) WriteValue(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(v); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Count returns the number of lines written so far.
func (s *StreamWriter) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, or nil.
func (s *StreamWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
