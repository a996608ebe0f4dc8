package task

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// The stored form of an Outcome is what the disk tier holds.  It is a
// version-led JSON array with one stage split and the agent count, because
// every agent reports the same split (tasktest requires it):
//
//	[2,rounds,leader_id,agents,nontrivial,agreement,leader,coordination,discovery]
//
// It stays JSON so encoding/json callers (the campaign tier, the
// benchmark's replay) keep working through MarshalJSON and UnmarshalJSON.
// Its leading version makes builds of different store formats read each
// other's records as misses that a recompute heals: an older build sees an
// array where it wants an object, and this one rejects the object form (and
// any other version) outright.
const storedVersion = 2

// maxStoredAgents caps the agent count a stored outcome may declare, so a
// corrupt or hostile record cannot make the decoder allocate without bound.
const maxStoredAgents = 1 << 16

// storedInts is the number of integers in the stored form.
const storedInts = 9

var (
	errStoredForm  = errors.New("task: not a stored outcome")
	errMixedSplits = errors.New("task: agents report different stage splits")
)

// MarshalJSON encodes the outcome in its stored form.  It fails when the
// agents' splits differ or there are more than maxStoredAgents of them;
// such an outcome has no stored form and is not persisted.
func (out Outcome) MarshalJSON() ([]byte, error) {
	n := len(out.PerAgent)
	if n > maxStoredAgents {
		return nil, fmt.Errorf("task: %d agents above the stored-outcome cap of %d", n, maxStoredAgents)
	}
	var sp Split
	if n > 0 {
		sp = out.PerAgent[0]
		for _, s := range out.PerAgent[1:] {
			if s != sp {
				return nil, errMixedSplits
			}
		}
	}
	b := make([]byte, 0, 48)
	b = append(b, '[')
	for i, v := range [storedInts]int{storedVersion, out.Rounds, out.LeaderID, n,
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
// nine integers in shortest form and no whitespace.
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
	agents, sp := f[3], Split{f[4], f[5], f[6], f[7], f[8]}
	if agents < 0 || agents > maxStoredAgents {
		return fmt.Errorf("task: stored outcome declares %d agents, outside [0, %d]", agents, maxStoredAgents)
	}
	if agents == 0 && sp != (Split{}) {
		return errStoredForm
	}
	if p != len(b)-1 {
		return errStoredForm
	}
	*out = Outcome{Rounds: f[1], LeaderID: f[2]}
	if agents > 0 {
		out.PerAgent = make([]Split, agents)
		for i := range out.PerAgent {
			out.PerAgent[i] = sp
		}
	}
	return nil
}
