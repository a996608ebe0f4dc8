package task

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// The stored form of an Outcome is what the disk tier holds.  It is a
// version-led JSON array of the scalars and the run's one stage split:
//
//	[3,rounds,leader_id,nontrivial,agreement,leader,coordination,discovery]
//
// It stays JSON so encoding/json callers (the campaign tier, the
// benchmark's replay) keep working through MarshalJSON and UnmarshalJSON.
// Its leading version makes builds of different store formats read each
// other's records as misses that a recompute heals: an older build sees an
// array where it wants an object, or a version it does not know, and this
// one rejects the object form and any other version outright.
const storedVersion = 3

// storedInts is the number of integers in the stored form.
const storedInts = 8

var errStoredForm = errors.New("task: not a stored outcome")

// MarshalJSON encodes the outcome in its stored form.  It fails unless the
// outcome holds exactly one stage split; any other outcome has no stored
// form and is not persisted.
func (out Outcome) MarshalJSON() ([]byte, error) {
	if len(out.PerAgent) != 1 {
		return nil, fmt.Errorf("task: %d stage splits in a stored outcome, want one", len(out.PerAgent))
	}
	sp := out.PerAgent[0]
	b := make([]byte, 0, 48)
	b = append(b, '[')
	for i, v := range [storedInts]int{storedVersion, out.Rounds, out.LeaderID,
		sp.Nontrivial, sp.Agreement, sp.Leader, sp.Coordination, sp.Discovery} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON decodes the stored form.  It accepts exactly the bytes
// MarshalJSON produces, so every accepted record re-encodes to itself:
// eight integers in shortest form and no whitespace.
func (out *Outcome) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return errStoredForm
	}
	var f [storedInts]int
	p := 1
	for i := range f {
		if i > 0 {
			if p >= len(b) || b[p] != ',' {
				return errStoredForm
			}
			p++
		}
		q := p
		for q < len(b) && (b[q] == '-' || '0' <= b[q] && b[q] <= '9') {
			q++
		}
		v, err := strconv.Atoi(string(b[p:q]))
		var tmp [20]byte
		if err != nil || !bytes.Equal(strconv.AppendInt(tmp[:0], int64(v), 10), b[p:q]) {
			return errStoredForm
		}
		f[i], p = v, q
	}
	if f[0] != storedVersion {
		return fmt.Errorf("task: stored outcome version %d, want %d", f[0], storedVersion)
	}
	if p != len(b)-1 {
		return errStoredForm
	}
	*out = Outcome{Rounds: f[1], LeaderID: f[2], PerAgent: []Split{{f[3], f[4], f[5], f[6], f[7]}}}
	return nil
}
