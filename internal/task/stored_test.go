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
	uniform := func(n int, sp Split) []Split {
		per := make([]Split, n)
		for i := range per {
			per[i] = sp
		}
		return per
	}
	for _, tc := range []struct {
		out  Outcome
		want string
	}{
		{Outcome{Rounds: 41, LeaderID: 7, PerAgent: uniform(8, Split{Nontrivial: 3, Agreement: 12, Leader: 26})},
			`[2,41,7,8,3,12,26,0,0]`},
		{Outcome{Rounds: 9, PerAgent: uniform(5, Split{Coordination: 4, Discovery: 5})},
			`[2,9,0,5,0,0,0,4,5]`},
		{Outcome{Rounds: -1}, `[2,-1,0,0,0,0,0,0,0]`},
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

	mixed := Outcome{Rounds: 3, PerAgent: []Split{{Leader: 1}, {Leader: 2}}}
	if b, err := json.Marshal(mixed); err == nil {
		t.Errorf("outcome with mixed splits encoded as %s", b)
	}
	if b, err := json.Marshal(Outcome{PerAgent: make([]Split, maxStoredAgents+1)}); err == nil {
		t.Errorf("outcome above the agent cap encoded (%d bytes)", len(b))
	}
}

// TestStoredOutcomeRejects: bytes of another store format, or that are not
// exactly what MarshalJSON would write, are errors, never an outcome.
func TestStoredOutcomeRejects(t *testing.T) {
	for _, in := range []string{
		`{"Rounds":41,"LeaderID":7,"PerAgent":[{"Nontrivial":3,"Agreement":12,"Leader":26,"Coordination":0,"Discovery":0}],"Extra":null}`,
		`[1,41,7,8,3,12,26,0,0]`,
		`[3,41,7,8,3,12,26,0,0]`,
		`[2,41,7,8,3,12,26,0]`,
		`[2,41,7,8,3,12,26,0,0,0]`,
		`[2,41,7,8,3,12,26,0,0]x`,
		`[2, 41,7,8,3,12,26,0,0]`,
		`[2,041,7,8,3,12,26,0,0]`,
		`[2,-0,7,8,3,12,26,0,0]`,
		`[2,+41,7,8,3,12,26,0,0]`,
		`[2,41,7,-1,0,0,0,0,0]`,
		`[2,41,7,65537,3,12,26,0,0]`,
		`[2,41,7,99999999999999999999,3,12,26,0,0]`,
		`[2,41,7,0,3,0,0,0,0]`,
		// The optional trailing {extra} object of older builds is gone.
		`[2,1,0,3,0,0,0,0,0,{"events":1}]`,
		`[2,1,0,3,0,0,0,0,0,null]`,
		`[2,1,0,3,0,0,0,0,0,{"events":1,"collisions":[1,1,0]}]`,
		`[2,1,0,3,0,0,0,0,0,{"events": 1}]`,
		`[2,1,0,3,0,0,0,0,0,{"events":1,"events":2}]`,
		`[2,1,0,3,0,0,0,0,0,{"events":1},{}]`,
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
// path every disk record takes.  No input may panic or make
// the decoder allocate past the agent cap, and every accepted input must be
// exactly what encoding the decoded outcome writes back, with one split
// repeated across the agents.
func FuzzStoredOutcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Outcome
		if err := out.UnmarshalJSON(data); err != nil {
			return
		}
		if cap(out.PerAgent) > maxStoredAgents {
			t.Fatalf("decoded %d agents, above the cap of %d", cap(out.PerAgent), maxStoredAgents)
		}
		for i, sp := range out.PerAgent {
			if sp != out.PerAgent[0] {
				t.Fatalf("agent %d split %+v differs from agent 0's %+v", i, sp, out.PerAgent[0])
			}
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
