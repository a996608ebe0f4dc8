// Package ringsym is a Go reproduction of "Deterministic Symmetry Breaking in
// Ring Networks" (Gąsieniec, Jurdziński, Martin, Stachowiak — ICDCS 2015,
// arXiv:1504.07127).
//
// The paper studies n mobile agents with unique identifiers on a circle of
// circumference 1.  Agents move in synchronised rounds at unit speed, bounce
// off each other elastically, cannot communicate, and at the end of each
// round learn only limited information about their own trajectory: the net
// displacement dist() and — in the perceptive model — the distance coll() to
// their first collision.  The paper determines the deterministic complexity
// of four problems in this model: the nontrivial move problem, direction
// agreement, leader election and location discovery.
//
// This package is the public facade over the full implementation:
//
//   - Network wraps a simulated ring of agents (exact integer geometry; the
//     engine steps every agent's protocol as a resumable state machine on
//     one scheduler goroutine);
//   - Coordinate solves the paper's three coordination problems
//     (nontrivial move, direction agreement, leader election);
//   - DiscoverLocations solves location discovery;
//   - the cells (CellOf, Table) are Tables I and II as data: per setting,
//     the pipeline each of the two runs and the paper's bounds;
//   - Engine exposes the underlying network, on which engine.Run executes
//     custom protocols.
//
// The sub-packages under internal/ contain the substrates (geometry, physics,
// engine, combinatorics, communication layer) and the individual algorithms;
// see DESIGN.md for the full inventory and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package ringsym

import (
	"context"
	"errors"
	"fmt"

	"ringsym/internal/core"
	"ringsym/internal/discovery"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// Model selects the movement model of the paper.
type Model = ring.Model

// Movement models.
const (
	// Basic: every agent must move each round; only dist() is observed.
	Basic = ring.Basic
	// Lazy: agents may also stay idle.
	Lazy = ring.Lazy
	// Perceptive: as Basic, plus the coll() observable.
	Perceptive = ring.Perceptive
)

// Direction is an agent's action for a round, in its own frame.
type Direction = ring.Direction

// Directions.
const (
	Idle          = ring.Idle
	Clockwise     = ring.Clockwise
	Anticlockwise = ring.Anticlockwise
)

// Agent is the handle a protocol uses to act in the network.
type Agent = engine.Agent

// Observation is what an agent learns at the end of a round.
type Observation = engine.Observation

// ErrVerification is returned when a protocol outcome contradicts the ground
// truth of the simulated network.
var ErrVerification = errors.New("ringsym: verification failed")

// Config describes a network.
type Config struct {
	// Model is the movement model (Basic, Lazy or Perceptive).
	Model Model
	// Circumference of the ring in ticks (positive, even).  The paper's unit
	// circle corresponds to any value; observations are reported in
	// half-ticks.
	Circumference int64
	// Positions are the agents' starting positions in ticks, sorted strictly
	// clockwise.
	Positions []int64
	// IDs are the agents' unique identifiers, in [1, IDBound], by ring index.
	IDs []int
	// IDBound is the publicly known bound N on identifiers.
	IDBound int
	// Chirality[i] is true when agent i's private clockwise equals the global
	// clockwise; nil means all agents are oriented the same way.
	Chirality []bool
	// MaxRounds aborts runaway protocols (0 = a large default).
	MaxRounds int
}

// RandomConfig controls RandomNetwork.
type RandomConfig struct {
	// N is the number of agents (> 4).
	N int
	// IDBound is N of the paper; defaults to 4·N.
	IDBound int
	// Model is the movement model; defaults to Perceptive.
	Model Model
	// MixedChirality gives every agent an independent random orientation;
	// when false (the default), all agents share the global orientation.
	MixedChirality bool
	// Seed drives the deterministic pseudo-random generation.
	Seed int64
	// Circumference in ticks; defaults to 1<<20.
	Circumference int64
}

// Network is a simulated ring network.
type Network struct {
	nw *engine.Network
}

// NewNetwork builds a network from an explicit configuration: it is Reset on
// a network with no configuration yet.
func NewNetwork(cfg Config) (*Network, error) {
	n := &Network{nw: new(engine.Network)}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// RandomNetwork builds a pseudo-random network (deterministic for a fixed
// seed).
func RandomNetwork(cfg RandomConfig) (*Network, error) {
	gen, err := netgen.Generate(netgen.Options{
		N:                   cfg.N,
		IDBound:             cfg.IDBound,
		Circ:                cfg.Circumference,
		Model:               cfg.Model,
		MixedChirality:      cfg.MixedChirality,
		ForceSplitChirality: cfg.MixedChirality,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	nw, err := engine.New(gen)
	if err != nil {
		return nil, err
	}
	return &Network{nw: nw}, nil
}

// Reset validates cfg and re-initialises the network in place, reusing the
// previous network's ring state, agent objects and scratch buffers; NewNetwork
// shares its validation.  On error the network may be left partially updated
// and must be discarded.  Scenario sweeps (the campaign runner) use it to
// retire one configuration per run without rebuilding the network object.
func (n *Network) Reset(cfg Config) error {
	return n.nw.Reset(engine.Config{
		Model:     cfg.Model,
		Circ:      cfg.Circumference,
		Positions: cfg.Positions,
		IDs:       cfg.IDs,
		IDBound:   cfg.IDBound,
		Chirality: cfg.Chirality,
		MaxRounds: cfg.MaxRounds,
	})
}

// N returns the number of agents.
func (n *Network) N() int { return n.nw.N() }

// Model returns the movement model.
func (n *Network) Model() Model { return n.nw.Model() }

// Rounds returns the total number of rounds executed so far.
func (n *Network) Rounds() int { return n.nw.Rounds() }

// IDOf returns the identifier of the agent with the given ring index.
func (n *Network) IDOf(i int) int { return n.nw.IDOf(i) }

// InitialPositions returns the agents' starting positions (ticks) by ring
// index.
func (n *Network) InitialPositions() []int64 { return n.nw.InitialPositions() }

// CurrentPositions returns the agents' current positions (ticks) by ring
// index.
func (n *Network) CurrentPositions() []int64 { return n.nw.CurrentPositions() }

// Engine exposes the underlying engine network for advanced uses (custom
// protocols via engine.Run).
func (n *Network) Engine() *engine.Network { return n.nw }

// CoordinationOptions configures Coordinate.
type CoordinationOptions struct {
	// CommonSense promises that all agents share a sense of direction (the
	// paper's Table II setting).  Only set it for networks built without
	// mixed chirality.
	CommonSense bool
	// Seed drives the pseudo-random schedules used for even n.
	Seed int64
}

// AgentCoordination is one agent's coordination outcome.
type AgentCoordination struct {
	ID               int
	IsLeader         bool
	RoundsNontrivial int
	RoundsAgreement  int
	RoundsLeader     int
}

// CoordinationResult aggregates a coordination run.
type CoordinationResult struct {
	// Rounds is the total number of rounds used.
	Rounds int
	// LeaderID is the identifier of the elected leader.
	LeaderID int
	// PerAgent holds the per-agent outcomes by ring index.
	PerAgent []AgentCoordination
}

// Coordinate solves the three coordination problems of the paper (nontrivial
// move, direction agreement, leader election) on every agent and verifies
// that exactly one leader was elected.  It runs the Coordinate pipeline of
// the network's cell (CellOf): with CommonSense, Lemma 13 and Lemma 10;
// without, a nontrivial move (Corollary 18 for odd n, Theorem 27's schedule
// for even n, NMoveS in the perceptive model), then Algorithm 1 and
// Algorithm 2.
func (n *Network) Coordinate(opts CoordinationOptions) (*CoordinationResult, error) {
	return n.CoordinateContext(context.Background(), opts)
}

// CoordinateContext is Coordinate with cancellation: a cancelled ctx aborts
// the pipeline within one round.
func (n *Network) CoordinateContext(ctx context.Context, opts CoordinationOptions) (*CoordinationResult, error) {
	c := CellOf(n.Model(), n.N()%2 == 1, opts.CommonSense)
	run, err := engine.Run(ctx, n.nw, func(a *Agent) *engine.Proto[*core.Coordination] {
		return c.CoordinateMachine(a, opts.Seed)
	})
	if err != nil {
		return nil, err
	}
	res := &CoordinationResult{Rounds: run.Rounds, PerAgent: make([]AgentCoordination, len(run.Outputs))}
	leaders := 0
	for i, c := range run.Outputs {
		res.PerAgent[i] = AgentCoordination{
			ID:               n.nw.IDOf(i),
			IsLeader:         c.IsLeader,
			RoundsNontrivial: c.RoundsNontrivial,
			RoundsAgreement:  c.RoundsAgreement,
			RoundsLeader:     c.RoundsLeader,
		}
		if c.IsLeader {
			leaders++
			res.LeaderID = n.nw.IDOf(i)
		}
	}
	if leaders != 1 {
		return nil, fmt.Errorf("%w: %d leaders elected", ErrVerification, leaders)
	}
	return res, nil
}

// DiscoveryOptions configures DiscoverLocations.
type DiscoveryOptions struct {
	// CommonSense promises an a-priori common sense of direction.
	CommonSense bool
	// Seed drives the pseudo-random schedules.
	Seed int64
}

// AgentDiscovery is one agent's location-discovery outcome.
type AgentDiscovery struct {
	ID       int
	IsLeader bool
	// N is the number of agents the protocol discovered.
	N int
	// Positions[t] is the arc (in half-ticks, measured in the agent's agreed
	// clockwise direction) from the agent's initial position to the initial
	// position of the agent at ring distance t from it.
	Positions []int64
	// RoundsCoordination and RoundsDiscovery split the cost.
	RoundsCoordination int
	RoundsDiscovery    int
}

// DiscoveryResult aggregates a location-discovery run.
type DiscoveryResult struct {
	Rounds   int
	PerAgent []AgentDiscovery
	// StartPositions are the agents' positions (ticks, by ring index) at the
	// moment the discovery protocol started; the reported maps are relative
	// to these.  They coincide with the initial positions unless other
	// protocols ran on the network beforehand.
	StartPositions []int64
}

// DiscoverLocations solves location discovery with the Discover pipeline of
// the network's cell (CellOf): Lemma 16's sweep after coordination, or
// Theorem 42 in the perceptive model with even n.  It verifies every
// agent's answer against the simulator's ground truth.  In the basic model
// with even n it fails with discovery.ErrNotSolvable (Lemma 5).
func (n *Network) DiscoverLocations(opts DiscoveryOptions) (*DiscoveryResult, error) {
	return n.DiscoverLocationsContext(context.Background(), opts)
}

// DiscoverLocationsContext is DiscoverLocations with cancellation: a
// cancelled ctx aborts the protocol within one round.
func (n *Network) DiscoverLocationsContext(ctx context.Context, opts DiscoveryOptions) (*DiscoveryResult, error) {
	start := n.nw.CurrentPositions()
	c := CellOf(n.Model(), n.N()%2 == 1, opts.CommonSense)
	run, err := engine.Run(ctx, n.nw, func(a *Agent) *engine.Proto[*discovery.Result] {
		return c.DiscoverMachine(a, opts.Seed)
	})
	if err != nil {
		return nil, err
	}
	res := &DiscoveryResult{Rounds: run.Rounds, PerAgent: make([]AgentDiscovery, len(run.Outputs)), StartPositions: start}
	for i, r := range run.Outputs {
		res.PerAgent[i] = AgentDiscovery{
			ID:                 n.nw.IDOf(i),
			IsLeader:           r.IsLeader,
			N:                  r.N,
			Positions:          r.Positions,
			RoundsCoordination: r.RoundsCoordination,
			RoundsDiscovery:    r.RoundsDiscovery,
		}
	}
	if err := n.VerifyDiscovery(res); err != nil {
		return nil, err
	}
	return res, nil
}

// VerifyDiscovery checks a discovery result against the simulator's ground
// truth: every agent must report the true relative positions of all agents
// (as of the start of the discovery run), in one consistent orientation.
func (n *Network) VerifyDiscovery(res *DiscoveryResult) error {
	count := n.N()
	if len(res.PerAgent) != count {
		return fmt.Errorf("%w: %d agent outcomes for %d agents", ErrVerification, len(res.PerAgent), count)
	}
	pos := res.StartPositions
	if pos == nil {
		pos = n.nw.InitialPositions()
	} else if len(pos) != count {
		return fmt.Errorf("%w: %d start positions for %d agents", ErrVerification, len(pos), count)
	}
	circ := n.nw.Circ()
	for i, agent := range res.PerAgent {
		if agent.N != count {
			return fmt.Errorf("%w: agent %d discovered n=%d, want %d", ErrVerification, i, agent.N, count)
		}
		if len(agent.Positions) != count {
			return fmt.Errorf("%w: agent %d reported %d positions", ErrVerification, i, len(agent.Positions))
		}
		cwOK, ccwOK := true, true
		for d := 0; d < count; d++ {
			cw := 2 * (((pos[(i+d)%count]-pos[i])%circ + circ) % circ)
			ccw := 2 * (((pos[i]-pos[((i-d)%count+count)%count])%circ + circ) % circ)
			if agent.Positions[d] != cw {
				cwOK = false
			}
			if agent.Positions[d] != ccw {
				ccwOK = false
			}
		}
		if !cwOK && !ccwOK {
			return fmt.Errorf("%w: agent %d reported wrong positions", ErrVerification, i)
		}
	}
	return nil
}

// LocationDiscoveryLowerBound returns the Lemma 6 lower bound on rounds for
// location discovery in the given model.
func LocationDiscoveryLowerBound(model Model, n int) int {
	return discovery.LowerBoundRounds(model, n)
}
