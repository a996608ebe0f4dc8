package campaign

import (
	"encoding/json"
	"io"
	"sort"
)

// OrderedWriter streams records as JSON lines in ascending scenario-index
// order regardless of the completion order of the worker pool.  Only
// out-of-order records are buffered, so memory stays bounded by the pool's
// in-flight window; combined with the deterministic record contents this
// makes the JSONL artefact byte-identical across runs and across shard
// concatenation.
type OrderedWriter struct {
	w        io.Writer
	pending  map[int]Record
	expected []int
	pos      int
	onRecord func(Record) // Run's callback, after each written line
}

// NewOrderedWriter returns a writer for a run over exactly the given
// scenarios (pass the shard's scenario slice).
func NewOrderedWriter(w io.Writer, scenarios []Scenario) *OrderedWriter {
	expected := make([]int, len(scenarios))
	for i, sc := range scenarios {
		expected[i] = sc.Index
	}
	sort.Ints(expected)
	return &OrderedWriter{w: w, pending: make(map[int]Record), expected: expected}
}

// Add accepts one record and writes every record that is now in order.
func (o *OrderedWriter) Add(rec Record) error {
	o.pending[rec.Index] = rec
	for o.pos < len(o.expected) {
		next, ok := o.pending[o.expected[o.pos]]
		if !ok {
			return nil
		}
		delete(o.pending, o.expected[o.pos])
		o.pos++
		if err := o.write(next); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any still-buffered records in index order.  After a complete
// run it is a no-op; after a cancelled run it drains the gaps left by
// never-started scenarios.
func (o *OrderedWriter) Flush() error {
	rest := make([]int, 0, len(o.pending))
	for idx := range o.pending {
		rest = append(rest, idx)
	}
	sort.Ints(rest)
	for _, idx := range rest {
		if err := o.write(o.pending[idx]); err != nil {
			return err
		}
		delete(o.pending, idx)
	}
	return nil
}

func (o *OrderedWriter) write(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	// One Write per record: a flushing writer (ringd's stream) sends each
	// Write as its own chunk.
	_, err = o.w.Write(append(line, '\n'))
	if err == nil && o.onRecord != nil {
		o.onRecord(rec)
	}
	return err
}
