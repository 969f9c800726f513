package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"ccnuma/internal/sim"
)

// TestStreamWriterMatchesJSONL proves the streaming path produces the same
// bytes as the batch exporter for an in-order event sequence — the property
// that lets numasimd's progress stream replace a post-run WriteJSONL dump.
func TestStreamWriterMatchesJSONL(t *testing.T) {
	events := []Event{}
	for i := 0; i < 10; i++ {
		e := NewEvent(KindPageMigrated)
		e.At = sim.Time(i)
		e.Page = int64(i * 7)
		e.From, e.To = i%3, (i+1)%3
		events = append(events, e)
	}

	var streamed bytes.Buffer
	sw := NewStreamWriter(&streamed)
	tr := NewTracer(nil, sw.Sink())
	for _, e := range events {
		tr.Emit(e)
	}

	var batch bytes.Buffer
	log := &Log{}
	for _, e := range events {
		log.Add(e)
	}
	if err := log.WriteJSONL(&batch); err != nil {
		t.Fatal(err)
	}

	if streamed.String() != batch.String() {
		t.Fatalf("stream bytes differ from batch JSONL:\n%s\nvs\n%s",
			streamed.String(), batch.String())
	}
	if sw.Count() != len(events) {
		t.Fatalf("Count = %d, want %d", sw.Count(), len(events))
	}
}

// TestStreamWriterLinesParse checks each line is one valid JSON event.
func TestStreamWriterLinesParse(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	e := NewEvent(KindTLBShootdown)
	e.N = 4
	sw.WriteValue(e)
	sw.WriteValue(map[string]string{"marker": "done"})

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines := 0
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d lines, want 2", lines)
	}
}

// failAfter fails every write past the first n.
type failAfter struct {
	n      int
	writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("consumer hung up")
	}
	return len(p), nil
}

// TestStreamWriterSticksOnError proves a dead consumer stops the stream
// quietly: the first error is retained, later writes are dropped.
func TestStreamWriterSticksOnError(t *testing.T) {
	f := &failAfter{n: 1}
	sw := NewStreamWriter(f)
	sw.WriteValue(NewEvent(KindPageMigrated))
	sw.WriteValue(NewEvent(KindPageMigrated))
	sw.WriteValue(NewEvent(KindPageMigrated))
	if sw.Err() == nil {
		t.Fatal("write error not retained")
	}
	if f.writes > 2 {
		t.Fatalf("writer kept writing after the error: %d writes", f.writes)
	}
	if sw.Count() != 1 {
		t.Fatalf("Count = %d, want 1", sw.Count())
	}
}

// TestStreamWriterConcurrent hammers WriteValue from several goroutines under
// -race: lines must never interleave mid-record.
func TestStreamWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := NewEvent(KindPolicyDecision)
				e.CPU = g
				e.N = i
				sw.WriteValue(e)
			}
		}(g)
	}
	wg.Wait()
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 8*50 {
		t.Fatalf("got %d lines, want %d", lines, 8*50)
	}
}
