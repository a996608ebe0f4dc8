package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ringsym/internal/campaign"
)

// FuzzRecordLine checks parseRecord against encoding/json: whenever the fast
// parser accepts a line, json.Unmarshal accepts it too and decodes the same
// record, and json.Marshal of that record is the line itself, so the fast
// path only ever reads the canonical bytes a worker's OrderedWriter emits.
// The committed corpus (testdata/fuzz/FuzzRecordLine) holds ok, failed,
// unsolvable and cache-annotated records, escaped and non-ASCII errors, a
// negative seed, exponent-form bounds, and two lines the fast path must
// decline: reordered fields and inner whitespace.
func FuzzRecordLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, ok := parseRecord(line)
		if !ok {
			return
		}
		var want campaign.Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("parseRecord accepted a line json.Unmarshal rejects (%v): %q", err, line)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("parseRecord decoded %+v, json.Unmarshal %+v: %q", rec, want, line)
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, line) {
			t.Fatalf("parseRecord accepted a non-canonical line:\nline:    %q\nmarshal: %q", line, enc)
		}
	})
}

// TestParseRecordGoldenLines checks that every line of the golden grid's
// export takes the fast path: a healthy worker's stream never pays for
// json.Unmarshal.
func TestParseRecordGoldenLines(t *testing.T) {
	lines := bytes.Split(bytes.TrimSuffix(localExport(t, goldenMatrix()), []byte("\n")), []byte("\n"))
	if len(lines) != 216 {
		t.Fatalf("golden export holds %d lines, want 216", len(lines))
	}
	for _, line := range lines {
		rec, ok := parseRecord(line)
		if !ok {
			t.Fatalf("parseRecord declined a golden line: %s", line)
		}
		var want campaign.Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("parseRecord decoded %+v, json.Unmarshal %+v", rec, want)
		}
	}
}

// TestDecodeRecordShapes walks record shapes the golden grid does not hold:
// json.Marshal's encoding of each takes the fast path and decodes to the
// record, and each non-canonical spelling is declined by parseRecord and
// still decoded by decodeRecord exactly as json.Unmarshal decodes it.
func TestDecodeRecordShapes(t *testing.T) {
	base := campaign.Record{
		Scenario: campaign.Scenario{Index: 7, Task: campaign.TaskDiscover, Model: "perceptive", N: 8, IDBound: 32, MixedChirality: true, Seed: 2},
		Status:   campaign.StatusOK, Verified: true, Rounds: 165,
		RoundsCoordination: 156, RoundsDiscovery: 9, LeaderID: 3,
		Bound: 75.5, BoundStr: "n/2 + O(sqrt(n) log^2 N)",
	}
	variant := func(edit func(*campaign.Record)) campaign.Record {
		r := base
		edit(&r)
		return r
	}
	for name, rec := range map[string]campaign.Record{
		"ok": base,
		"failed": variant(func(r *campaign.Record) {
			r.Status, r.Error, r.Verified = campaign.StatusFailed, "verify: no leader", false
		}),
		"cached": variant(func(r *campaign.Record) { r.Phase, r.Reflect, r.Cache = 3, true, "dedup" }),
		"escaped error": variant(func(r *campaign.Record) {
			r.Status, r.Error = campaign.StatusFailed, "panic: \"x\" <nil>\n\\ &  "
		}),
		"non-ASCII error":   variant(func(r *campaign.Record) { r.Status, r.Error = campaign.StatusFailed, "délai — √n" }),
		"unknown words":     variant(func(r *campaign.Record) { r.Task, r.Model, r.Status, r.Cache = "t", "m", "s", "c" }),
		"negative seed":     variant(func(r *campaign.Record) { r.Seed = -9223372036854775808 }),
		"large bound":       variant(func(r *campaign.Record) { r.Bound = 1e21 }),
		"small bound":       variant(func(r *campaign.Record) { r.Bound = 2.5e-7 }),
		"negative bound":    variant(func(r *campaign.Record) { r.Bound = -0.125 }),
		"integral bound":    variant(func(r *campaign.Record) { r.Bound = 152 }),
		"all rounds fields": variant(func(r *campaign.Record) { r.RoundsNontrivial, r.RoundsAgreement, r.RoundsLeader = 1, 2, 3 }),
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseRecord(line)
		if !ok || !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: parseRecord(%s) = %+v, %v; want the record", name, line, got, ok)
		}
	}

	canonical, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	line := string(canonical)
	for name, alt := range map[string]string{
		"reordered fields": strings.Replace(line, `{"index":7,"task":"discover"`, `{"task":"discover","index":7`, 1),
		"inner whitespace": strings.Replace(line, `"n":8,`, `"n": 8,`, 1),
		"trailing space":   line + " ",
		"zero omitempty":   strings.Replace(line, `,"status"`, `,"phase":0,"status"`, 1),
		"false omitempty":  strings.Replace(line, `,"status"`, `,"reflect":false,"status"`, 1),
		"empty omitempty":  strings.Replace(line, `,"verified"`, `,"error":"","verified"`, 1),
		"leading zero":     strings.Replace(line, `"seed":2`, `"seed":02`, 1),
		"plus sign":        strings.Replace(line, `"seed":2`, `"seed":+2`, 1),
		"exponent int":     strings.Replace(line, `"rounds":165`, `"rounds":1.65e2`, 1),
		"long bound":       strings.Replace(line, `"bound":75.5`, `"bound":75.50`, 1),
		"capital exponent": strings.Replace(line, `"bound":75.5`, `"bound":7.55E1`, 1),
		"escaped letter":   strings.Replace(line, `"perceptive"`, `"perc\u0065ptive"`, 1),
		"raw less-than":    strings.Replace(line, `"n/2 + O`, `"n/2 < O`, 1),
		"extra":            strings.Replace(line, `}`, `,"extra":{"k":1}}`, 1),
		"unknown field":    strings.Replace(line, `}`, `,"x":1}`, 1),
		"wrong type":       strings.Replace(line, `"rounds":165`, `"rounds":"165"`, 1),
		"int overflow":     strings.Replace(line, `"seed":2`, `"seed":9223372036854775808`, 1),
		"truncated":        line[:len(line)-1],
	} {
		if alt == line {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, ok := parseRecord([]byte(alt)); ok {
			t.Errorf("%s: parseRecord accepted %s", name, alt)
		}
		var want campaign.Record
		wantErr := json.Unmarshal([]byte(alt), &want)
		got, err := decodeRecord([]byte(alt))
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeRecord = %+v, %v; json.Unmarshal = %+v, %v", name, got, err, want, wantErr)
		}
	}
}

// BenchmarkDecodeRecord decodes the golden grid's 216 lines per op, on the
// fast path and through json.Unmarshal alone.
func BenchmarkDecodeRecord(b *testing.B) {
	lines := bytes.Split(bytes.TrimSuffix(localExport(b, goldenMatrix()), []byte("\n")), []byte("\n"))
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, line := range lines {
				if _, err := decodeRecord(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, line := range lines {
				var rec campaign.Record
				if err := json.Unmarshal(line, &rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
