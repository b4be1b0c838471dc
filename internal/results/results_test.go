package results

import (
	"errors"
	"testing"
)

// memSink is the minimal conforming Sink: the contract tests below are
// the executable spec every real sink (JSONL, ledger.Ledger) also
// passes in its own tests.
type memSink struct {
	recs   []Record
	closed bool
}

func (m *memSink) Append(rec Record) error {
	if m.closed {
		return ErrClosed
	}
	m.recs = append(m.recs, rec)
	return nil
}

func (m *memSink) Close() error { m.closed = true; return nil }

func (m *memSink) Records() ([]Record, error) { return m.recs, nil }

func TestSinkContract(t *testing.T) {
	var s memSink
	if err := s.Append(Record{Key: "a", Payload: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err := s.Append(Record{Key: "b"})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	// The sink doubles as a Reader — the resume path's requirement.
	var r Reader = &s
	recs, err := r.Records()
	if err != nil || len(recs) != 1 || recs[0].Key != "a" {
		t.Fatalf("Records = %v, %v", recs, err)
	}
}
