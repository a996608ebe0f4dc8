package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"ringsym/internal/campaign"
)

// FuzzConsumeStream feeds arbitrary bytes to consume as one worker's
// response to the lease [0, 4) of a small matrix; the worker's address is
// never dialled.  No input may panic the reader or move the lease watermark
// outside the lease, a clean return ("") must mean everything the lease owes
// is merged, and Records must hold exactly the lines consume accepted: lines
// of the input, in input order, the k-th carrying index k.
func FuzzConsumeStream(f *testing.F) {
	// An over-long line: over a mebibyte, so it is built here instead of
	// committed under testdata.
	f.Add(append([]byte("{\"index\":0}\n"), bytes.Repeat([]byte{'x'}, maxLineBytes+1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const addr, hi = "http://a:1", 4
		var out bytes.Buffer
		c, err := New(testMatrix(), Options{Workers: []string{addr}, Records: &out})
		if err != nil {
			t.Fatal(err)
		}
		l := c.newLease(0, hi, 0)
		cause := c.consume(bytes.NewReader(data), c.roster[addr], l)
		if l.next < l.lo || l.next > l.hi {
			t.Fatalf("watermark %d outside the lease [%d, %d)", l.next, l.lo, l.hi)
		}
		if cause == "" && l.next < l.hi {
			t.Fatalf("clean return with %d of %d indices merged", l.next, l.hi)
		}

		written := bytes.SplitAfter(out.Bytes(), []byte("\n"))
		if last := written[len(written)-1]; len(last) != 0 {
			t.Fatalf("Records does not end in a newline: %q", last)
		}
		written = written[:len(written)-1]
		if len(written) != l.next {
			t.Fatalf("Records holds %d lines, the watermark is %d", len(written), l.next)
		}
		input := bytes.Split(data, []byte("\n"))
		pos := 0
		for k, line := range written {
			line = bytes.TrimSuffix(line, []byte("\n"))
			var rec campaign.Record
			if err := json.Unmarshal(line, &rec); err != nil || rec.Index != k {
				t.Fatalf("line %d of Records is not index %d (%v): %q", k, k, err, line)
			}
			for pos < len(input) && !bytes.Equal(bytes.TrimSuffix(input[pos], []byte("\r")), line) {
				pos++
			}
			if pos == len(input) {
				t.Fatalf("line %d of Records is not a line of the input after the previous one: %q", k, line)
			}
			pos++
		}
	})
}
