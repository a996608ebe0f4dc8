// Package task holds the paper's two tasks and is the single seam through
// which every layer of the stack — the campaign runner, the table harness in
// internal/eval, the serving daemon and the CLIs — selects, runs, verifies
// and cache-translates a scenario's workload.
//
// A task is described by a Spec: how to run it on a network, whether it is
// solvable in a setting, what the paper's bound for it is, how to re-check a
// finished outcome against the simulator's ground truth, and how to translate
// an outcome computed on the canonical representative of a symmetry orbit
// (internal/canon) back into the requesting frame.  The catalogue is a fixed
// table of the paper's two tasks, sorted by name: coordinate (nontrivial
// move, direction agreement, leader election) and discover (location
// discovery).  Lookup resolves a name and Names lists them.  The conformance
// suite in tasktest runs both through the same obligations: Solvable/Run
// agreement, Verify on ground truth, the cache round-trip
// Run(s) == MapOutcome(Run(canon(s))), and byte-stable record JSON.
package task

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/ring"
)

// Params is the task-relevant slice of a scenario: everything a Spec may
// consult beyond the network itself.  The network passed to Run is already
// generated from these parameters; they are provided separately because the
// facade deliberately does not expose identifier bounds or the chirality
// regime as a summary.
type Params struct {
	// N is the number of agents.
	N int
	// IDBound is the public bound N of the paper on identifiers.
	IDBound int
	// MixedChirality reports that agents have adversarially mixed senses of
	// direction.
	MixedChirality bool
	// CommonSense promises an a-priori common sense of direction.
	CommonSense bool
	// Seed drives the pseudo-random protocol schedules.
	Seed int64
}

// Split is a run's per-stage round split: the stage vocabularies of the two
// tasks side by side.  A task fills its own stages and leaves the other
// task's zero (zero stages are omitted from record JSON).
type Split struct {
	// Coordination-pipeline stages (coordinate).
	Nontrivial, Agreement, Leader int
	// Location-discovery stages (discover).
	Coordination, Discovery int
}

// Outcome is the frame-independent result of one verified task run: every
// field reads the same in every frame of the network's symmetry orbit.  JSON
// coding goes through the compact stored form of stored.go, not a
// field-by-field object.
type Outcome struct {
	// Rounds is the total round cost of the task.
	Rounds int
	// LeaderID is the identifier of the elected leader; 0 when the task
	// elects none.
	LeaderID int
	// PerAgent holds the run's one stage split: agents act in synchronised
	// rounds, so every agent ends every stage in the same round (the facade
	// checks it).  It is a slice only because bench/replay.go reads
	// PerAgent[0]; it becomes a value with the next change to bench/.
	PerAgent []Split
	// Extra is always nil; kept only because bench/replay.go reads it; goes
	// with the next change to bench/.  The stored form does not carry it.
	Extra map[string]json.RawMessage
}

// Spec describes one protocol task end to end.  Implementations must be
// stateless (a Spec is shared by every worker of every sweep) and
// deterministic: the outcome may depend only on the network configuration and
// the Params.
type Spec interface {
	// Name is the lowercase Lookup key and the Scenario.Task value
	// ("coordinate").
	Name() string
	// Description is the one-line human summary listed by GET /v1/tasks.
	Description() string
	// Solvable reports whether the task is solvable at all in the setting;
	// unsolvable scenarios are recorded without running (Lemma 5 style).
	Solvable(model ring.Model, oddN bool) bool
	// Bound returns the task's round bound in the setting, as a plain formula
	// without the hidden constant plus its human-readable form.  Tasks
	// without a meaningful bound return (0, "n/a").
	Bound(model ring.Model, oddN, commonSense bool, n, idBound int) (float64, string)
	// Run executes the task on the network and returns its outcome.  Run is
	// responsible for the task's own end-to-end verification (the facade
	// verifies protocol outcomes against the simulator's ground truth); the
	// runner additionally calls Verify on every fresh outcome.
	Run(ctx context.Context, nw *ringsym.Network, p Params) (Outcome, error)
	// Verify re-checks a finished outcome against the network it ran on:
	// invariants the outcome itself exposes (leader identity, bound
	// consistency, conservation laws) must hold against the ground truth.
	Verify(nw *ringsym.Network, p Params, out Outcome) error
	// MapOutcome translates an outcome computed in the canonical frame of a
	// symmetry orbit back into the frame described by m (the Map returned by
	// canon.Canonicalize for the requesting configuration).  It must treat
	// out as immutable — the value is shared with the memo cache.  Every
	// field of an Outcome is frame-independent, so both tasks return out
	// unchanged; the method stays because bench/ calls it.
	MapOutcome(out Outcome, m canon.Map) Outcome
}

// specs is the whole catalogue, sorted by name: the paper's two tasks.
var specs = [...]Spec{coordinateSpec{}, discoverSpec{}}

// Lookup returns the spec named name (case-insensitive).  The error of an
// unknown name lists the tasks, so a typo in a sweep spec or an HTTP request
// is self-explaining.
func Lookup(name string) (Spec, error) {
	key := strings.ToLower(name)
	for _, spec := range specs {
		if spec.Name() == key {
			return spec, nil
		}
	}
	return nil, fmt.Errorf("task: unknown task %q (tasks: %s)", name, strings.Join(Names(), ", "))
}

// Names returns the task names, sorted.
func Names() []string {
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = spec.Name()
	}
	return out
}
