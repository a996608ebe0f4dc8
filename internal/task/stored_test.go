package task

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestStoredOutcome pins the stored form byte for byte, its round trip
// through encoding/json, and the outcomes it refuses to encode.
func TestStoredOutcome(t *testing.T) {
	for _, tc := range []struct {
		out  Outcome
		want string
	}{
		{Outcome{Rounds: 41, LeaderID: 7, PerAgent: []Split{{Nontrivial: 3, Agreement: 12, Leader: 26}}},
			`[3,41,7,3,12,26,0,0]`},
		{Outcome{Rounds: 9, LeaderID: 2, PerAgent: []Split{{Coordination: 4, Discovery: 5}}},
			`[3,9,2,0,0,0,4,5]`},
		{Outcome{Rounds: -1, PerAgent: []Split{{}}}, `[3,-1,0,0,0,0,0,0]`},
	} {
		b, err := json.Marshal(tc.out)
		if err != nil || string(b) != tc.want {
			t.Errorf("Marshal(%+v) = %s, %v; want %s", tc.out, b, err, tc.want)
			continue
		}
		var back Outcome
		if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, tc.out) {
			t.Errorf("Unmarshal(%s) = %+v, %v; want %+v", b, back, err, tc.out)
		}
	}

	// Only an outcome with exactly one stage split has a stored form.
	for _, per := range [][]Split{nil, {{Leader: 1}, {Leader: 1}}, {{Leader: 1}, {Leader: 2}}} {
		if b, err := json.Marshal(Outcome{Rounds: 3, PerAgent: per}); err == nil {
			t.Errorf("outcome with %d splits encoded as %s", len(per), b)
		}
	}
}

// TestStoredOutcomeRejects: bytes of another store format, or that are not
// exactly what MarshalJSON would write, are errors, never an outcome.
func TestStoredOutcomeRejects(t *testing.T) {
	for _, in := range []string{
		`{"Rounds":41,"LeaderID":7,"PerAgent":[{"Nontrivial":3,"Agreement":12,"Leader":26,"Coordination":0,"Discovery":0}],"Extra":null}`,
		// Version 2 carried the agent count before the split.
		`[2,41,7,8,3,12,26,0,0]`,
		`[2,41,7,3,12,26,0,0]`,
		`[1,41,7,3,12,26,0,0]`,
		`[4,41,7,3,12,26,0,0]`,
		`[3,41,7,3,12,26,0]`,
		`[3,41,7,3,12,26,0,0,0]`,
		`[3,41,7,3,12,26,0,0]x`,
		`[3, 41,7,3,12,26,0,0]`,
		`[3,041,7,3,12,26,0,0]`,
		`[3,-0,7,3,12,26,0,0]`,
		`[3,+41,7,3,12,26,0,0]`,
		`[3,41,7,99999999999999999999,12,26,0,0]`,
		`[3,41,7,3,12,26,0,0`,
		`[]`,
		// The optional trailing {extra} object of older builds is gone.
		`[3,1,0,0,0,0,0,0,{"events":1}]`,
		`[3,1,0,0,0,0,0,0,null]`,
		`[2,1,0,3,0,0,0,0,0,{"events":1,"collisions":[1,1,0]}]`,
	} {
		var out Outcome
		if err := out.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("accepted %s as %+v", in, out)
		}
		if strings.HasPrefix(in, "{") {
			if err := json.Unmarshal([]byte(in), &out); err == nil {
				t.Errorf("json.Unmarshal accepted the object form %s", in)
			}
		}
	}
}

// FuzzStoredOutcome feeds arbitrary bytes to the stored-form decoder, the
// path every disk record takes.  No input may panic, every accepted input
// decodes to exactly one stage split, and it must be exactly what encoding
// the decoded outcome writes back.
func FuzzStoredOutcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Outcome
		if err := out.UnmarshalJSON(data); err != nil {
			return
		}
		if len(out.PerAgent) != 1 {
			t.Fatalf("accepted %q with %d stage splits", data, len(out.PerAgent))
		}
		again, err := json.Marshal(out)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", data, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %q re-encodes as %q", data, again)
		}
		var viaJSON Outcome
		if err := json.Unmarshal(data, &viaJSON); err != nil || !reflect.DeepEqual(viaJSON, out) {
			t.Fatalf("json.Unmarshal(%q) = %+v, %v; the method gave %+v", data, viaJSON, err, out)
		}
	})
}
