// Package campaign executes large declarative sweeps of ring-network
// scenarios in parallel.  A Matrix declares axes (tasks, movement models,
// parities, chirality regimes, common-sense flags, network sizes, seeds) and
// expands into a deterministic, shardable list of Scenario specs; Run
// executes the scenarios on a worker pool sized to the machine, isolating
// panics so one bad scenario cannot kill a sweep, and streams one Record per
// scenario; Aggregator folds the record stream into per-setting statistics
// (count/min/max/mean/exact percentiles, observed-vs-bound ratios) without
// retaining the records in memory.
//
// The package is the substrate of cmd/ringfarm and of the Table I/II
// generation in internal/eval.  All results are deterministic for a fixed
// spec: a record depends only on its scenario (network generation and the
// pseudo-random protocol schedules are seeded), so the exported JSONL and
// summary artefacts are byte-identical across repeated runs and across any
// union of shards covering the same matrix.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ringsym/internal/ring"
	"ringsym/internal/task"
)

// Task selects which protocol pipeline a scenario runs.  Any name registered
// in the internal/task registry is a valid value; the constants below name
// the paper's built-ins for convenience.
type Task string

// The built-in tasks of the paper (see internal/task for the full registry).
const (
	// TaskCoordinate runs the coordination pipeline of the paper (nontrivial
	// move, direction agreement, leader election).
	TaskCoordinate Task = "coordinate"
	// TaskDiscover runs full location discovery (which includes
	// coordination).
	TaskDiscover Task = "discover"
)

// Parity axis values.
const (
	ParityOdd  = "odd"
	ParityEven = "even"
)

// Chirality axis values.
const (
	ChiralityMixed  = "mixed"
	ChiralityCommon = "common"
)

// MaxIDBound is the largest identifier bound a scenario may carry.  The
// perceptive protocols send an identifier and a presence bit in one half of
// a 62-bit word (internal/rcomm), so they cannot run a bound of 2^30 or
// more; Matrix.Expand and ringd's /v1/run reject larger bounds for every
// model.
const MaxIDBound = 1<<30 - 1

// Scenario is one fully specified experiment: every field is explicit, so a
// scenario is reproducible in isolation and a record is a pure function of
// its scenario.
type Scenario struct {
	// Index is the scenario's position in the expanded matrix; it is the sort
	// key of all exported artefacts and the basis of sharding.
	Index int `json:"index"`
	// Task is the protocol pipeline to run.
	Task Task `json:"task"`
	// Model is the movement model name (basic, lazy or perceptive).
	Model string `json:"model"`
	// N is the number of agents (already parity-adjusted).
	N int `json:"n"`
	// IDBound is the public bound N of the paper on identifiers.
	IDBound int `json:"id_bound"`
	// MixedChirality gives agents adversarially mixed senses of direction.
	MixedChirality bool `json:"mixed_chirality"`
	// CommonSense promises an a-priori common sense of direction (only valid
	// with common chirality).
	CommonSense bool `json:"common_sense"`
	// Seed drives the network generation and the pseudo-random schedules.
	Seed int64 `json:"seed"`
	// Phase rotates the generated ring so the agent with ring index Phase
	// (mod n) leads the frame; the scenario is a symmetric variant of the
	// Phase 0 scenario with an identical outcome (see internal/canon), which
	// the memo cache deduplicates.  Taken modulo n at run time.
	Phase int `json:"phase,omitempty"`
	// Reflect mirrors the generated ring (reversing the global orientation
	// and flipping every chirality bit); like Phase, a reflected scenario is
	// outcome-equivalent to its unreflected twin.
	Reflect bool `json:"reflect,omitempty"`
}

// Key returns a compact human-readable label for the scenario.
func (s Scenario) Key() string {
	chir := ChiralityCommon
	if s.MixedChirality {
		chir = ChiralityMixed
	}
	cs := ""
	if s.CommonSense {
		cs = " cs"
	}
	sym := ""
	if s.Phase != 0 || s.Reflect {
		sym = fmt.Sprintf("/ph=%d", s.Phase)
		if s.Reflect {
			sym += "r"
		}
	}
	return fmt.Sprintf("%s/%s/n=%d/%s%s/seed=%d%s", s.Task, s.Model, s.N, chir, cs, s.Seed, sym)
}

// Matrix declares a scenario sweep as a cross-product of axes.  Zero-valued
// axes default to full coverage (all tasks, all models, both parities, both
// chirality regimes, no common sense) so an empty matrix is already a
// meaningful smoke sweep.  The struct is the JSON sweep-spec format of
// cmd/ringfarm.
type Matrix struct {
	// Tasks to run; defaults to every registered task the paper states a
	// bound for (coordinate and discover).
	Tasks []Task `json:"tasks,omitempty"`
	// Models are movement-model names; defaults to basic, lazy, perceptive.
	Models []string `json:"models,omitempty"`
	// Parities are "odd" and/or "even"; defaults to both.  Sizes are nudged
	// up by one when their parity does not match.
	Parities []string `json:"parities,omitempty"`
	// Chirality regimes are "mixed" and/or "common"; defaults to both.
	Chirality []string `json:"chirality,omitempty"`
	// CommonSense flags; defaults to {false}.  true is only expanded against
	// common chirality (the promise would be violated in mixed rings).
	CommonSense []bool `json:"common_sense,omitempty"`
	// Sizes are the requested network sizes n (>= 5 after parity
	// adjustment); defaults to {16, 32}.
	Sizes []int `json:"sizes,omitempty"`
	// Seeds for network generation and schedules; defaults to {1}.
	Seeds []int64 `json:"seeds,omitempty"`
	// Phases are ring-rotation offsets applied to the generated network
	// (see Scenario.Phase); defaults to {0}.  Non-trivial phases make the
	// sweep symmetric-heavy: every phase of a setting is outcome-equivalent,
	// which the memo cache collapses to one computation.
	Phases []int `json:"phases,omitempty"`
	// Reflections are the mirror variants to sweep (see Scenario.Reflect);
	// defaults to {false}.
	Reflections []bool `json:"reflections,omitempty"`
	// IDBoundFactor sets the identifier bound N = IDBoundFactor·n;
	// defaults to 4.
	IDBoundFactor int `json:"id_bound_factor,omitempty"`
}

func (m Matrix) filled() Matrix {
	if len(m.Tasks) == 0 {
		// All registered tasks with a paper bound, in sorted (deterministic)
		// name order; today that is exactly {coordinate, discover}, so default
		// sweeps stay byte-identical as the registry grows derived workloads.
		for _, name := range task.PaperBoundNames() {
			m.Tasks = append(m.Tasks, Task(name))
		}
	}
	if len(m.Models) == 0 {
		m.Models = []string{"basic", "lazy", "perceptive"}
	}
	if len(m.Parities) == 0 {
		m.Parities = []string{ParityOdd, ParityEven}
	}
	if len(m.Chirality) == 0 {
		m.Chirality = []string{ChiralityMixed, ChiralityCommon}
	}
	if len(m.CommonSense) == 0 {
		m.CommonSense = []bool{false}
	}
	if len(m.Sizes) == 0 {
		m.Sizes = []int{16, 32}
	}
	if len(m.Seeds) == 0 {
		m.Seeds = []int64{1}
	}
	if len(m.Phases) == 0 {
		m.Phases = []int{0}
	}
	if len(m.Reflections) == 0 {
		m.Reflections = []bool{false}
	}
	if m.IDBoundFactor <= 0 {
		m.IDBoundFactor = 4
	}
	return m
}

// DecodeMatrix decodes one JSON sweep spec (the Matrix format of
// cmd/ringfarm and POST /v1/campaign) strictly: unknown fields are an error,
// not silence, so a typo'd axis name ("task" for "tasks", "size" for
// "sizes") cannot quietly sweep the defaults instead of what was asked for.
// Trailing data after the spec object is rejected for the same reason.
func DecodeMatrix(r io.Reader) (Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Matrix{}, fmt.Errorf("campaign: sweep spec: %w (axes: tasks, models, parities, chirality, common_sense, sizes, seeds, phases, reflections, id_bound_factor)", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Matrix{}, fmt.Errorf("campaign: sweep spec: trailing data after the spec object")
	}
	return m, nil
}

// ParseModel maps a movement-model name to its ring.Model.
func ParseModel(name string) (ring.Model, error) {
	switch strings.ToLower(name) {
	case "basic":
		return ring.Basic, nil
	case "lazy":
		return ring.Lazy, nil
	case "perceptive":
		return ring.Perceptive, nil
	}
	return 0, fmt.Errorf("campaign: unknown model %q", name)
}

// AdjustParity nudges n up by one when its parity does not match.
func AdjustParity(n int, odd bool) int {
	if odd == (n%2 == 1) {
		return n
	}
	return n + 1
}

// Expand enumerates the cross-product of the matrix axes in a fixed nesting
// order (task, model, parity, chirality, common sense, size, seed, phase,
// reflection) and
// returns the scenario list with indices assigned in that order.  The
// contradictory combination common-sense × mixed chirality is skipped.
// Expansion is deterministic: the same matrix always yields the same list.
func (m Matrix) Expand() ([]Scenario, error) {
	f := m.filled()
	for _, model := range f.Models {
		if _, err := ParseModel(model); err != nil {
			return nil, err
		}
	}
	tasks := make([]Task, len(f.Tasks))
	for i, t := range f.Tasks {
		tasks[i] = Task(strings.ToLower(string(t)))
		if _, err := task.Lookup(string(tasks[i])); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	f.Tasks = tasks
	var out []Scenario
	for _, task := range f.Tasks {
		for _, model := range f.Models {
			for _, parity := range f.Parities {
				odd := parity == ParityOdd
				if !odd && parity != ParityEven {
					return nil, fmt.Errorf("campaign: unknown parity %q", parity)
				}
				for _, chir := range f.Chirality {
					mixed := chir == ChiralityMixed
					if !mixed && chir != ChiralityCommon {
						return nil, fmt.Errorf("campaign: unknown chirality %q", chir)
					}
					for _, cs := range f.CommonSense {
						if cs && mixed {
							continue
						}
						for _, size := range f.Sizes {
							n := AdjustParity(size, odd)
							if n < 5 {
								return nil, fmt.Errorf("campaign: size %d too small (the paper needs n > 4)", size)
							}
							if f.IDBoundFactor > MaxIDBound/n {
								return nil, fmt.Errorf("campaign: id_bound_factor %d times n = %d exceeds the identifier bound limit %d", f.IDBoundFactor, n, MaxIDBound)
							}
							for _, seed := range f.Seeds {
								for _, phase := range f.Phases {
									for _, refl := range f.Reflections {
										out = append(out, Scenario{
											Index:          len(out),
											Task:           task,
											Model:          strings.ToLower(model),
											N:              n,
											IDBound:        f.IDBoundFactor * n,
											MixedChirality: mixed,
											CommonSense:    cs,
											Seed:           seed,
											Phase:          phase,
											Reflect:        refl,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// UpperBounds reports conservative pre-expansion bounds for the matrix: the
// full axis product (>= len(Expand()), which may skip contradictory
// common-sense × mixed-chirality combinations) and the largest
// parity-adjusted network size.  Both cost O(axes), not O(product), so a
// server can reject an abusive sweep spec before Expand allocates anything.
// The product saturates instead of overflowing.
func (m Matrix) UpperBounds() (scenarios, maxN int) {
	f := m.filled()
	const saturated = int(^uint(0) >> 1) // MaxInt
	product := int64(1)
	for _, axis := range []int{
		len(f.Tasks), len(f.Models), len(f.Parities), len(f.Chirality),
		len(f.CommonSense), len(f.Sizes), len(f.Seeds), len(f.Phases), len(f.Reflections),
	} {
		if axis == 0 { // unreachable after filled(); kept for exported-API safety
			product = 0
			break
		}
		// Saturate BEFORE multiplying: a wrap past MaxInt64 would turn the
		// bound negative and wave an abusive spec through the cap.
		if product > int64(saturated)/int64(axis) {
			product = int64(saturated)
			break
		}
		product *= int64(axis)
	}
	for _, size := range f.Sizes {
		for _, parity := range f.Parities {
			// A matrix restricted to one parity must not be bounded by the
			// other's +1 adjustment (a sizes=[4096] parities=[even] sweep
			// contains n=4096, not 4097).
			if n := AdjustParity(size, parity == ParityOdd); n > maxN {
				maxN = n
			}
		}
	}
	return int(product), maxN
}

// Shard returns the i-th of m contiguous blocks of the scenario list
// (0 <= i < m).  Blocks are disjoint, their union is the whole list, and —
// because they are contiguous — concatenating the JSONL exports of shards
// 0..m-1 reproduces the unsharded export byte for byte.
func Shard(scenarios []Scenario, i, m int) ([]Scenario, error) {
	if m < 1 || i < 0 || i >= m {
		return nil, fmt.Errorf("campaign: invalid shard %d/%d", i, m)
	}
	l := len(scenarios)
	lo := i * l / m
	hi := (i + 1) * l / m
	return scenarios[lo:hi], nil
}

// ParseShard parses an "i/m" shard designator.  Both parts must be plain
// decimal integers with no trailing input (Sscanf-style parsing would
// silently accept "0/4x" or "1/2/3"), m must be at least 1, and i must lie
// in [0, m).
func ParseShard(s string) (i, m int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ms, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("campaign: invalid shard %q (want i/m, e.g. 0/4)", s)
	}
	i, err1 := strconv.Atoi(is)
	m, err2 := strconv.Atoi(ms)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("campaign: invalid shard %q (want i/m with decimal i and m)", s)
	}
	if m < 1 {
		return 0, 0, fmt.Errorf("campaign: invalid shard %q (m must be >= 1)", s)
	}
	if i < 0 || i >= m {
		return 0, 0, fmt.Errorf("campaign: invalid shard %q (need 0 <= i < m)", s)
	}
	return i, m, nil
}
