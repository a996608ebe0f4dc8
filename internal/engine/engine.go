// Package engine provides the synchronous distributed runtime on which the
// paper's protocols execute.
//
// An agent only interacts with the world through its Agent handle: it knows
// its unique identifier, the identifier bound N, the parity of n and nothing
// else.  Submitting a direction (expressed in the agent's own, private sense
// of direction) schedules the next round; the round executes on the exact
// analytic engine (internal/ring) once every agent has chosen, and each agent
// receives its observation translated back into its own frame.  That
// rendezvous is what the round-based model of the paper calls a "synchronised
// round".
//
// Protocols are resumable state machines (fsm.go): instead of blocking on a
// round, a machine returns its next round or leap-batch request and the
// continuation to resume with.  Run (sched.go) is the one way to execute
// them: a loop on the caller's goroutine steps every agent's machine to its
// next yield, executes the crossing inline through the leap executor
// (exec.go) and resumes the machines with their observations, with no
// goroutine per agent and no synchronisation in the round loop.  Each run
// borrows its scratch arena from one internal pool, so callers hold no
// scheduler state and pass none through a context.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"ringsym/internal/ring"
)

// Parity is what an agent knows about the size n of the network.
type Parity int8

const (
	// ParityUnknown means the agent was not told the parity of n.
	ParityUnknown Parity = iota
	// ParityEven means n is even.
	ParityEven
	// ParityOdd means n is odd.
	ParityOdd
)

// String implements fmt.Stringer.
func (p Parity) String() string {
	switch p {
	case ParityEven:
		return "even"
	case ParityOdd:
		return "odd"
	default:
		return "unknown"
	}
}

// Errors returned by the engine.
var (
	ErrBadIDs          = errors.New("engine: IDs must be unique and within [1, IDBound]")
	ErrBadChirality    = errors.New("engine: chirality slice length must match positions")
	ErrMaxRoundsExceed = errors.New("engine: maximum number of rounds exceeded")
	ErrNetworkBroken   = errors.New("engine: network is in a failed state")
	ErrIdleNotAllowed  = errors.New("engine: idle is only allowed in the lazy model")
	ErrBadDirection    = errors.New("engine: invalid direction")
	ErrProtocolPanic   = errors.New("engine: protocol panicked")
	ErrRunInProgress   = errors.New("engine: a run is already in progress on this network")
)

// DefaultMaxRounds bounds runaway protocols when Config.MaxRounds is zero.
const DefaultMaxRounds = 50_000_000

// Config describes a network to be constructed with New.
type Config struct {
	// Model is the movement model (basic, lazy or perceptive).
	Model ring.Model
	// Circ is the circumference in ticks (positive, even).
	Circ int64
	// Positions holds the starting positions in ticks sorted strictly
	// clockwise; Positions[i] belongs to the agent with ring index i.
	Positions []int64
	// IDs holds the unique identifiers (1..IDBound) by ring index.
	IDs []int
	// IDBound is the value N known to every agent.
	IDBound int
	// Chirality[i] is true when agent i's own clockwise direction coincides
	// with the global clockwise direction.  A nil slice means every agent is
	// correctly oriented.
	Chirality []bool
	// HideParity withholds the parity of n from the agents (the paper
	// normally assumes the parity is known).
	HideParity bool
	// MaxRounds aborts a run once the network's cumulative round count
	// reaches this bound; 0 means DefaultMaxRounds.  The count accumulates
	// across sequential runs on the same Network (as it always has), so a
	// long-lived reused network spends a single budget, not one per run.
	MaxRounds int
	// AllowSmall permits n <= 4 (excluded by the paper, useful in tests).
	AllowSmall bool
}

// Observation is what an agent learns at the end of a round, in its own frame.
// Arc values are in half-ticks; the full circle is Agent.FullCircle().
type Observation struct {
	// Dist is dist(): the arc from the agent's position at the beginning of
	// the round to its position at the end, measured in the agent's own
	// clockwise direction.
	Dist int64
	// Coll is coll(): the arc travelled before the agent's first collision.
	// Only meaningful when Collided is true (perceptive model).
	Coll int64
	// Collided reports whether the agent collided during the round
	// (perceptive model only).
	Collided bool
}

// Network owns the objective ring state and coordinates rounds.  A Network
// supports at most one run at a time: a concurrent Run on the same Network
// fails with ErrRunInProgress instead of corrupting the shared state.
// Sequential runs reuse the same agent handles and their scratch buffers.
// The zero Network has no configuration until Reset gives it one.
type Network struct {
	cfg     Config
	state   *ring.State
	agents  []*Agent
	idToIdx map[int]int

	// crossings counts the crossings (leap batches) executed on this network,
	// cumulative across runs like the round count.  Only the goroutine running
	// the scheduler increments it.
	crossings int

	mu      sync.Mutex // guards running and (between runs) broken
	running bool
	broken  error
}

// Agent is the handle through which a protocol acts.  An Agent is only valid
// inside the run it was created for and must not be shared across goroutines.
type Agent struct {
	nw         *Network
	idx        int // ring index (never revealed to protocols)
	id         int
	idBound    int
	parity     Parity
	model      ring.Model
	chirality  bool
	fullCircle int64
	rounds     int
	disp       int64

	// Scratch buffers reused across batched submissions: objBuf receives the
	// executor-written objective observations, dirBuf holds the objective
	// translation of a schedule.  Both stay stable while the agent's batch is
	// pending, which is the only time the executor reads them.  resBuf holds
	// the own-frame translation of the trace a machine is resumed with
	// (fsm.go); it is valid until the machine's next yield.
	objBuf []ring.Observation
	dirBuf []ring.Direction
	resBuf []Observation

	// kept holds the protocol packages' per-agent state by Slot index
	// (keep.go); like the buffers above it survives runs and Reset.
	kept []any

	// slot is the agent's single pending-batch slot: the Yield* builders
	// (fsm.go) write the next submission there and return a handle to it, so
	// a yield travels through the CPS frames as three words instead of a full
	// batch copy.  During a run it points at the agent's entry of the
	// executor's pending column, so the batch is written once and executed
	// where it lies.  At most one yield per agent is in flight, so one slot
	// suffices.
	slot *batch
}

// New validates cfg and builds the network: it is Reset on a zero Network.
func New(cfg Config) (*Network, error) {
	nw := new(Network)
	if err := nw.Reset(cfg); err != nil {
		return nil, err
	}
	return nw, nil
}

// Reset validates cfg and (re)initialises the network in place, reusing the
// ring state, agent objects (with their grown scratch buffers) and ID index
// of the previous configuration, if any; New is Reset on a zero Network, so
// the two share one validation.  On error the network may be left partially
// updated and must be discarded; Reset is for scenario sweeps over trusted
// generators, where rebuilding a complete network object per scenario is pure
// allocation overhead.  Reset must not be called while a run is in flight.
func (nw *Network) Reset(cfg Config) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.running {
		return ErrRunInProgress
	}
	if nw.state == nil {
		nw.state = new(ring.State)
	}
	if err := nw.state.Reset(ring.Config{
		Model:      cfg.Model,
		Circ:       cfg.Circ,
		Positions:  cfg.Positions,
		AllowSmall: cfg.AllowSmall,
	}); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	n := len(cfg.Positions)
	if len(cfg.IDs) != n {
		return fmt.Errorf("%w: got %d IDs for %d agents", ErrBadIDs, len(cfg.IDs), n)
	}
	if cfg.IDBound < n {
		return fmt.Errorf("%w: IDBound %d < n %d", ErrBadIDs, cfg.IDBound, n)
	}
	if nw.idToIdx == nil {
		nw.idToIdx = make(map[int]int, n)
	}
	clear(nw.idToIdx)
	for i, id := range cfg.IDs {
		if id < 1 || id > cfg.IDBound {
			return fmt.Errorf("%w: ID %d out of range", ErrBadIDs, id)
		}
		if _, dup := nw.idToIdx[id]; dup {
			return fmt.Errorf("%w: duplicate ID %d", ErrBadIDs, id)
		}
		nw.idToIdx[id] = i
	}
	if cfg.Chirality != nil && len(cfg.Chirality) != n {
		return ErrBadChirality
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	nw.cfg = cfg
	nw.crossings = 0
	nw.broken = nil
	if cap(nw.agents) < n {
		old := nw.agents
		nw.agents = make([]*Agent, n)
		copy(nw.agents, old[:cap(old)])
	}
	nw.agents = nw.agents[:n]
	for i := 0; i < n; i++ {
		a := nw.agents[i]
		if a == nil {
			a = &Agent{nw: nw, idx: i}
			nw.agents[i] = a
		}
		a.id = cfg.IDs[i]
		a.idBound = cfg.IDBound
		a.parity = nw.parity()
		a.model = cfg.Model
		a.chirality = nw.ChiralityOf(i)
		a.fullCircle = nw.state.FullCircle()
		a.rounds = 0
		a.disp = 0
	}
	return nil
}

// N returns the number of agents (not revealed to protocols).
func (nw *Network) N() int { return len(nw.cfg.Positions) }

// Model returns the movement model.
func (nw *Network) Model() ring.Model { return nw.cfg.Model }

// Circ returns the circumference in ticks.
func (nw *Network) Circ() int64 { return nw.cfg.Circ }

// Rounds returns the number of rounds executed so far.
func (nw *Network) Rounds() int { return nw.state.Rounds() }

// Crossings returns the number of crossings (leap batches) executed
// so far; rounds/crossings is the mean leap length.  Like Rounds it
// accumulates across sequential runs and must not be read concurrently with
// one.
func (nw *Network) Crossings() int { return nw.crossings }

// IDOf returns the ID of the agent with ring index i.
func (nw *Network) IDOf(i int) int { return nw.cfg.IDs[i] }

// IndexOfID returns the ring index of the agent with the given ID, or -1.
func (nw *Network) IndexOfID(id int) int {
	if idx, ok := nw.idToIdx[id]; ok {
		return idx
	}
	return -1
}

// ChiralityOf reports whether agent i's own clockwise equals the global one.
func (nw *Network) ChiralityOf(i int) bool {
	if nw.cfg.Chirality == nil {
		return true
	}
	return nw.cfg.Chirality[i]
}

// InitialPositions returns the starting positions by ring index (ticks).
func (nw *Network) InitialPositions() []int64 {
	out := make([]int64, len(nw.cfg.Positions))
	copy(out, nw.cfg.Positions)
	return out
}

// CurrentPositions returns the current positions by ring index (ticks).
func (nw *Network) CurrentPositions() []int64 {
	n := nw.N()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = nw.state.PositionOf(i)
	}
	return out
}

// Gaps returns the clockwise gaps between consecutive slot positions (ticks).
func (nw *Network) Gaps() []int64 { return nw.state.Gaps() }

// FullCircle returns the circumference in observation units (half-ticks).
func (nw *Network) FullCircle() int64 { return nw.state.FullCircle() }

// parity of the actual network size.
func (nw *Network) parity() Parity {
	if nw.cfg.HideParity {
		return ParityUnknown
	}
	if nw.N()%2 == 0 {
		return ParityEven
	}
	return ParityOdd
}

// Result carries the outcome of running a protocol on every agent.
type Result[T any] struct {
	// Rounds is the total number of rounds consumed by the run.
	Rounds int
	// Outputs holds each agent's protocol return value, by ring index.
	Outputs []T
}

// beginRun acquires the network for a run: it rejects concurrent runs and
// runs on a broken network, and resets the per-run agent state.  endRun
// releases the network.
func (nw *Network) beginRun() error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.running {
		return ErrRunInProgress
	}
	if nw.broken != nil {
		return fmt.Errorf("%w: %w", ErrNetworkBroken, nw.broken)
	}
	nw.running = true
	for _, a := range nw.agents {
		a.rounds = 0
		a.disp = 0
	}
	return nil
}

func (nw *Network) endRun() {
	nw.mu.Lock()
	nw.running = false
	nw.mu.Unlock()
}

// objectiveDir translates agent i's own-frame direction into the global frame.
func (nw *Network) objectiveDir(i int, own ring.Direction) ring.Direction {
	if own == ring.Idle || nw.ChiralityOf(i) {
		return own
	}
	return own.Opposite()
}

// ID returns the agent's unique identifier.
func (a *Agent) ID() int { return a.id }

// IDBound returns N, the publicly known bound on identifiers.
func (a *Agent) IDBound() int { return a.idBound }

// NParity returns what the agent knows about the parity of n.
func (a *Agent) NParity() Parity { return a.parity }

// Model returns the movement model in force.
func (a *Agent) Model() ring.Model { return a.model }

// FullCircle returns the circumference of the ring in observation units
// (half-ticks); the paper normalises it to 1.
func (a *Agent) FullCircle() int64 { return a.fullCircle }

// RoundsUsed returns how many rounds this agent has participated in during
// the current run.
func (a *Agent) RoundsUsed() int { return a.rounds }

// Displacement returns the cumulative displacement of the agent since the
// current run started, measured in its own clockwise direction modulo the
// full circle (half-ticks).  An agent always knows the arc between its
// initial and its current position by summing its dist() observations.
func (a *Agent) Displacement() int64 { return a.disp }

// checkDir validates a direction an agent is about to submit.
func (a *Agent) checkDir(dir ring.Direction) error {
	switch dir {
	case ring.Clockwise, ring.Anticlockwise:
		return nil
	case ring.Idle:
		if !a.model.AllowsIdle() {
			return ErrIdleNotAllowed
		}
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrBadDirection, int8(dir))
	}
}

// objective translates an own-frame direction into the global frame.
func (a *Agent) objective(dir ring.Direction) ring.Direction {
	if !a.chirality && dir != ring.Idle {
		return dir.Opposite()
	}
	return dir
}

// objDisp returns the agent's cumulative displacement re-expressed in the
// global clockwise direction (half-ticks, mod the full circle).
func (a *Agent) objDisp(own int64) int64 {
	if a.chirality || own == 0 {
		return own
	}
	return a.fullCircle - own
}

// obsScratch returns the agent-owned objective observation buffer, sized k.
func (a *Agent) obsScratch(k int) []ring.Observation {
	if cap(a.objBuf) < k {
		a.objBuf = make([]ring.Observation, k)
	}
	return a.objBuf[:k]
}

// absorb translates one objective observation into the agent's frame and
// folds it into the agent's round and displacement accounting.
func (a *Agent) absorb(rep ring.Observation) Observation {
	a.rounds++
	obs := Observation{Collided: rep.Collided, Coll: rep.Coll}
	if a.chirality || rep.DistCW == 0 {
		obs.Dist = rep.DistCW
	} else {
		obs.Dist = a.fullCircle - rep.DistCW
	}
	// obs.Dist < fullCircle always, so a conditional subtraction replaces the
	// modulo on the hot path.
	a.disp += obs.Dist
	if a.disp >= a.fullCircle {
		a.disp -= a.fullCircle
	}
	return obs
}

// finishTrace translates the executed prefix of the objective trace into the
// agent's frame, writing into dst from index 0 (existing contents are
// overwritten; only dst's capacity is reused).
func (a *Agent) finishTrace(executed int, dst []Observation) []Observation {
	if cap(dst) < executed {
		dst = make([]Observation, executed)
	}
	dst = dst[:executed]
	for j := 0; j < executed; j++ {
		dst[j] = a.absorb(a.objBuf[j])
	}
	return dst
}
