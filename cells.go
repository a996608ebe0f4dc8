package ringsym

import (
	"fmt"
	"math"
	"slices"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/discovery"
	"ringsym/internal/engine"
	"ringsym/internal/perceptive"
)

// Problem is one of the paper's four problems: a column of Tables I and II.
type Problem string

// Problems with bounds in the paper.
const (
	LeaderElection     Problem = "leader election"
	NontrivialMove     Problem = "nontrivial move"
	DirectionAgreement Problem = "direction agreement"
	LocationDiscovery  Problem = "location discovery"
)

// Cell is one setting of the paper's Tables I and II (a movement model, the
// parity of n, and whether a common sense of direction is promised) with the
// pipeline each task runs in it and the paper's bound on each problem.  The
// cells are the only place that routes a setting; they are shared and must
// not be modified.
type Cell struct {
	Model       Model
	OddN        bool
	CommonSense bool
	// Label is the cell's row label in Table I or II; empty for lazy and
	// perceptive odd n, for which the tables' "odd n" row, run in the basic
	// model, stands.
	Label string
	// Coordinate is the pipeline Network.Coordinate runs and Discover the
	// one DiscoverLocations runs.  Where location discovery is not solvable
	// (Lemma 5), Discover has no stages and its machine fails with
	// discovery.ErrNotSolvable.
	Coordinate Pipeline[*core.Coordination]
	Discover   Pipeline[*discovery.Result]
	// Bounds are the cell's columns in its table's order: Table II has no
	// direction-agreement column, because a common sense solves it.
	Bounds []Bound
}

// Pipeline is a task's route through a cell: the stages it runs, in order,
// and the step that runs them on an agent.
type Pipeline[T any] struct {
	Stages []Stage
	step   func(a *Agent, seed int64, k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)
}

// Stage is a pipeline stage, named by the paper result it implements.
// Solves is the problem solved when it ends, if any.  A coordination stage's
// rounds are recorded under the problem it solves, so a problem's
// from-scratch cost sums the stages up to the one that solves it.
type Stage struct {
	Result string
	Solves Problem
}

// Bound is a cell's bound on one problem: the paper's formula without its
// hidden constant, and its printed form.
type Bound struct {
	Problem Problem
	Label   string
	value   func(t terms) float64
}

// terms are the quantities the paper writes its bounds in.
type terms struct{ n, logN, logNn, logn, sqrtn float64 }

// Bound returns the cell's bound on p for n agents and the identifier bound
// idBound, and its printed form; (0, "n/a") when the cell's table has no
// column for p.
func (c *Cell) Bound(p Problem, n, idBound int) (float64, string) {
	for _, b := range c.Bounds {
		if b.Problem == p {
			return b.value(terms{
				n:     float64(n),
				logN:  comb.Log2(float64(idBound)),
				logNn: comb.Log2(float64(idBound) / float64(n)),
				logn:  comb.Log2(float64(n)),
				sqrtn: math.Sqrt(float64(n)),
			}), b.Label
		}
	}
	return 0, "n/a"
}

// CoordinateMachine returns agent a's machine for the cell's Coordinate
// pipeline, for engine.Run; seed drives the pseudo-random schedules.  The
// machine and its result are the agent's kept state (engine.MachineSlot),
// valid until the agent's next run.
func (c *Cell) CoordinateMachine(a *Agent, seed int64) *engine.Proto[*core.Coordination] {
	return coordinations.New(a, seeded[*core.Coordination]{c.Coordinate.step, seed})
}

// DiscoverMachine is CoordinateMachine for the Discover pipeline.
func (c *Cell) DiscoverMachine(a *Agent, seed int64) *engine.Proto[*discovery.Result] {
	return discoveries.New(a, seeded[*discovery.Result]{c.Discover.step, seed})
}

// seeded is a step and its seed: the options of the machines, which all
// cells share, so that an agent keeps one machine per task.
type seeded[T any] struct {
	step func(a *Agent, seed int64, k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)
	seed int64
}

func runSeeded[T any](a *Agent, s seeded[T], k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return s.step(a, s.seed, k)
}

var (
	coordinations = engine.NewMachineSlot(runSeeded[*core.Coordination])
	discoveries   = engine.NewMachineSlot(runSeeded[*discovery.Result])
)

// CellOf returns the cell of a setting; model must be valid.  A facade
// network tells every agent the parity of n, so its cell routes every agent
// as the agent's own parity would.
func CellOf(model Model, oddN, commonSense bool) *Cell {
	for i := range cells {
		if c := &cells[i]; c.Model == model && c.OddN == oddN && c.CommonSense == commonSense {
			return c
		}
	}
	panic(fmt.Sprintf("ringsym: no cell for model %v", model))
}

// Table returns the rows of Table I (commonSense false) or Table II, in the
// paper's order: the cells with a Label.
func Table(commonSense bool) []*Cell {
	var out []*Cell
	for i, c := range cells {
		if c.Label != "" && c.CommonSense == commonSense {
			out = append(out, &cells[i])
		}
	}
	return out
}

// cells is Tables I and II, one cell a row: model, n odd, common sense,
// label, the Coordinate and Discover pipelines, the bounds.  In each table,
// odd n comes first, so the labelled rows are in the paper's order.
var cells = [...]Cell{
	{Basic, true, false, "odd n", corollary18, sweep(corollary18, 2), tableI(logN, logNn, one, nPlusLogN)},
	{Lazy, true, false, "", corollary18, sweep(corollary18, 1), tableI(logN, logNn, one, nPlusLogN)},
	{Perceptive, true, false, "", nmoveS, sweep(corollary18, 2), tableI(sqrtLogN, sqrtLogN, sqrtLogN, halfNPlusSqrtLog2N)},
	{Basic, false, false, "basic model, even n", theorem27, lemma5, tableI(distinguisher, distinguisher, distinguisher, notSolvable)},
	{Lazy, false, false, "lazy model, even n", theorem27, sweep(theorem27, 1), tableI(distinguisher, distinguisher, distinguisher, nPlusDistinguisher)},
	{Perceptive, false, false, "perceptive model, even n", nmoveS, theorem42, tableI(sqrtLogN, sqrtLogN, sqrtLogN, halfNPlusSqrtLog2N)},

	{Basic, true, true, "odd n", lemma13, sweep(lemma13, 2), tableII(logN, logNn, nPlusLogN)},
	{Lazy, true, true, "", lemma13, sweep(lemma13, 1), tableII(logN, logNn, nPlusLogN)},
	{Perceptive, true, true, "", lemma13, sweep(lemma13, 2), tableII(logN, logNn, nPlusLogN)},
	{Basic, false, true, "basic model, even n", lemma13, lemma5, tableII(log2N, log2N, notSolvable)},
	{Lazy, false, true, "lazy model, even n", lemma13, sweep(lemma13, 1), tableII(logN, logN, nPlusLogN)},
	// Theorem 42 runs without the promise: NMoveS orients aligned agents.
	{Perceptive, false, true, "perceptive model, even n", lemma13, theorem42, tableII(logN, logN, halfNPlusSqrtLogN)},
}

var (
	corollary18 = theorem7("Corollary 18", core.CoordinateOddStep)
	theorem27   = theorem7("Theorem 27", core.CoordinateEvenStep)
	nmoveS      = theorem7("NMoveS", perceptive.CoordinateStep)
	lemma13     = Pipeline[*core.Coordination]{[]Stage{{"Lemma 13", LeaderElection}, {"Lemma 10", NontrivialMove}}, core.CoordinateCommonSenseStep}
	theorem42   = Pipeline[*discovery.Result]{append(slices.Clip(nmoveS.Stages), Stage{"RingDist", ""}, Stage{"Distances", LocationDiscovery}), discovery.PerceptiveStep}
	lemma5      = Pipeline[*discovery.Result]{step: func(*Agent, int64, func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return engine.Abort(discovery.ErrNotSolvable)
	}}
)

// theorem7 is Theorem 7's pipeline: a nontrivial move, then Algorithm 1 and
// Algorithm 2.
func theorem7(nontrivialMove string, step core.CoordinateFunc) Pipeline[*core.Coordination] {
	return Pipeline[*core.Coordination]{[]Stage{{nontrivialMove, NontrivialMove}, {"Algorithm 1", DirectionAgreement}, {"Algorithm 2", LeaderElection}}, step}
}

// sweep is Lemma 16's sweep with the rotation index step, after c.
func sweep(c Pipeline[*core.Coordination], step int) Pipeline[*discovery.Result] {
	return Pipeline[*discovery.Result]{
		Stages: append(slices.Clip(c.Stages), Stage{"Lemma 16 sweep", LocationDiscovery}),
		step: func(a *Agent, seed int64, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return discovery.SweepStep(a, c.step, seed, step, k)
		},
	}
}

// tableI and tableII lay out a cell's bounds in its table's columns.
func tableI(le, nm, da, ld Bound) []Bound {
	le.Problem, nm.Problem, da.Problem, ld.Problem = LeaderElection, NontrivialMove, DirectionAgreement, LocationDiscovery
	return []Bound{le, nm, da, ld}
}

func tableII(le, nm, ld Bound) []Bound {
	le.Problem, nm.Problem, ld.Problem = LeaderElection, NontrivialMove, LocationDiscovery
	return []Bound{le, nm, ld}
}

var (
	one                = Bound{Label: "O(1)", value: func(terms) float64 { return 1 }}
	logN               = Bound{Label: "O(log N)", value: func(t terms) float64 { return t.logN }}
	log2N              = Bound{Label: "O(log^2 N)", value: func(t terms) float64 { return t.logN * t.logN }}
	logNn              = Bound{Label: "Theta(log(N/n))", value: func(t terms) float64 { return t.logNn }}
	sqrtLogN           = Bound{Label: "O(sqrt(n) log N)", value: func(t terms) float64 { return t.sqrtn * t.logN }}
	distinguisher      = Bound{Label: "Theta(n log(N/n)/log n)", value: func(t terms) float64 { return t.n * t.logNn / t.logn }}
	nPlusLogN          = Bound{Label: "n + O(log N)", value: func(t terms) float64 { return t.n + t.logN }}
	nPlusDistinguisher = Bound{Label: "n + Theta(n log(N/n)/log n)", value: func(t terms) float64 { return t.n + t.n*t.logNn/t.logn }}
	halfNPlusSqrtLogN  = Bound{Label: "n/2 + O(sqrt(n) log N)", value: func(t terms) float64 { return t.n/2 + t.sqrtn*t.logN }}
	halfNPlusSqrtLog2N = Bound{Label: "n/2 + O(sqrt(n) log^2 N)", value: func(t terms) float64 { return t.n/2 + t.sqrtn*t.logN*t.logN }}
	notSolvable        = Bound{Label: "not solvable", value: func(terms) float64 { return 0 }}
)
