package campaign

import (
	"bytes"
	"testing"
)

// lineWriter records each Write it receives.
type lineWriter struct{ writes [][]byte }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestOrderedWriterOneWritePerRecord checks that each record reaches the
// underlying writer as one Write holding one whole line: a flushing writer,
// like ringd's /v1/campaign stream, sends each Write as its own chunk.
func TestOrderedWriterOneWritePerRecord(t *testing.T) {
	scs, err := smallMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunAll(t.Context(), scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var w lineWriter
	ow := NewOrderedWriter(&w, scs)
	// Reversed, so every record but the last is buffered before it is written.
	for i := len(recs) - 1; i >= 0; i-- {
		if err := ow.Add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != len(recs) {
		t.Fatalf("%d writes for %d records", len(w.writes), len(recs))
	}
	for i, p := range w.writes {
		if bytes.IndexByte(p, '\n') != len(p)-1 {
			t.Fatalf("write %d is not one whole line: %q", i, p)
		}
	}
}
