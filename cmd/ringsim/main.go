// Command ringsim runs a single scenario of the bouncing-agents model and
// prints what happened: the elected leader, the per-problem round counts and,
// for location discovery, every agent's reconstructed map of the ring.
//
// Usage:
//
//	ringsim -n 16 -model perceptive -mixed -task discover -seed 3
//	ringsim -n 8 -model lazy -task coordinate
//	ringsim -n 8 -task coordinate -json | jq .rounds
//	ringsim -n 8 -task coordinate -store results.store   # reuse ringd's store
//	ringsim -tasks                   # list the two tasks and exit
//
// Both tasks of internal/task (coordinate and discover) are runnable; ringsim
// resolves them through the same task.Lookup as cmd/ringfarm and cmd/ringd.
// With -json the run is emitted as the machine-readable scenario record of
// the campaign harness (one campaign.Record JSON object, the same shape as a
// records.jsonl line of cmd/ringfarm), so single runs are scriptable exactly
// like sweeps.
//
// With -store <dir> the run consults (and fills) the persistent result store
// of internal/store — the same directory a ringd -store daemon or a
// ringfarm -store sweep uses — and either task goes through the campaign
// record path: a disk-served outcome carries the record fields, not the
// interactive per-agent report, so both print the same shape.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringsim: ")

	n := flag.Int("n", 16, "number of agents (> 4)")
	modelName := flag.String("model", "perceptive", "movement model: basic, lazy or perceptive")
	mixed := flag.Bool("mixed", true, "give agents independent random senses of direction")
	seed := flag.Int64("seed", 1, "seed for the random configuration")
	taskName := flag.String("task", "discover", "task to run: "+strings.Join(task.Names(), ", "))
	listTasks := flag.Bool("tasks", false, "list the tasks and exit")
	jsonOut := flag.Bool("json", false, "emit the run as a machine-readable campaign record")
	storeDir := flag.String("store", "", "read/write the outcome through the on-disk result store in this directory (shared with ringd/ringfarm -store)")
	flag.Parse()

	if *listTasks {
		for _, name := range task.Names() {
			spec, err := task.Lookup(name)
			if err != nil {
				continue
			}
			fmt.Printf("%-12s %s\n", name, spec.Description())
		}
		return
	}

	model, err := campaign.ParseModel(*modelName)
	if err != nil {
		log.Fatal(err)
	}

	// -store routes the run through the campaign record path for every task:
	// a store-served outcome carries the record fields, not the interactive
	// per-agent report, so a disk hit and a fresh compute must print the same
	// shape.  The singleton memory cache exists only to give the store tier a
	// front — ringsim itself runs one scenario.
	var opts campaign.Options
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			log.Fatal(err)
		}
		cache := campaign.NewCache(0)
		cache.AttachTier(st, nil)
		opts.Cache = cache
	}
	closeStore := func() {
		if st != nil {
			if err := st.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// An interrupt cancels a record-path run within one engine round and
	// reports it as a failed record.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *jsonOut {
		runJSON(ctx, campaign.Task(*taskName), *n, *modelName, *mixed, *seed, opts, closeStore)
		return
	}

	// Without -store both tasks print their rich interactive reports; with
	// it, or for an unknown name (which fails listing the tasks), the run
	// goes through the campaign record path and prints a record summary.
	switch *taskName {
	case "coordinate", "discover":
		if st == nil {
			if *taskName == "coordinate" {
				runCoordinate(*n, model, *mixed, *seed)
			} else {
				runDiscover(*n, model, *mixed, *seed)
			}
			return
		}
		fallthrough
	default:
		runGeneric(ctx, *taskName, *n, *modelName, *mixed, *seed, opts)
	}
	closeStore()
}

// scenarioFor assembles the campaign scenario a ringsim invocation denotes.
// The task name is lowercased like the model, so the emitted record matches
// a sweep's byte for byte whatever casing was typed.
func scenarioFor(taskName campaign.Task, n int, model string, mixed bool, seed int64) campaign.Scenario {
	return campaign.Scenario{
		Task:           campaign.Task(strings.ToLower(string(taskName))),
		Model:          strings.ToLower(model),
		N:              n,
		IDBound:        4 * n,
		MixedChirality: mixed,
		Seed:           seed,
	}
}

// runJSON executes the scenario through the campaign runner — the identical
// generation, dispatch and verification path a ringfarm sweep or a ringd
// request uses — and prints the record as one JSON line.  A failed record
// still prints (with its error field) but exits nonzero, so scripts can
// branch on the exit status.
func runJSON(ctx context.Context, taskName campaign.Task, n int, model string, mixed bool, seed int64, opts campaign.Options, closeStore func()) {
	rec := campaign.RunScenarioContext(ctx, scenarioFor(taskName, n, model, mixed, seed), opts)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		log.Fatal(err)
	}
	closeStore()
	if rec.Status == campaign.StatusFailed {
		os.Exit(1)
	}
}

// runGeneric runs the task through the campaign runner and prints a
// human-readable summary of the record.
func runGeneric(ctx context.Context, taskName string, n int, model string, mixed bool, seed int64, opts campaign.Options) {
	rec := campaign.RunScenarioContext(ctx, scenarioFor(campaign.Task(taskName), n, model, mixed, seed), opts)
	switch rec.Status {
	case campaign.StatusFailed:
		log.Fatal(rec.Error)
	case campaign.StatusUnsolvable:
		fmt.Printf("task=%s model=%s n=%d: not solvable in this setting\n", taskName, rec.Model, rec.N)
		return
	}
	fmt.Printf("task=%s model=%s n=%d mixed-orientation=%v\n", taskName, rec.Model, rec.N, mixed)
	fmt.Printf("total rounds: %d (bound: %s)\n", rec.Rounds, rec.BoundStr)
	if rec.LeaderID != 0 {
		fmt.Printf("leader: agent with ID %d\n", rec.LeaderID)
	}
	if rec.Cache != "" && rec.Cache != "miss" {
		fmt.Printf("outcome served from the %s cache tier (verified when first computed)\n", rec.Cache)
	} else {
		fmt.Println("outcome verified against the simulator's ground truth")
	}
}

func buildNetwork(n int, model ringsym.Model, mixed bool, seed int64) *ringsym.Network {
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{
		N: n, Model: model, MixedChirality: mixed, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return nw
}

func runCoordinate(n int, model ringsym.Model, mixed bool, seed int64) {
	nw := buildNetwork(n, model, mixed, seed)
	res, err := nw.Coordinate(ringsym.CoordinationOptions{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model=%v n=%d mixed-orientation=%v\n", model, n, mixed)
	fmt.Printf("leader: agent with ID %d\n", res.LeaderID)
	fmt.Printf("total rounds: %d\n", res.Rounds)
	fmt.Printf("round breakdown: nontrivial move %d, direction agreement %d, leader election %d\n",
		res.RoundsNontrivial, res.RoundsAgreement, res.RoundsLeader)
}

func runDiscover(n int, model ringsym.Model, mixed bool, seed int64) {
	nw := buildNetwork(n, model, mixed, seed)
	res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model=%v n=%d mixed-orientation=%v\n", model, n, mixed)
	fmt.Printf("total rounds: %d (Lemma 6 lower bound: %d)\n",
		res.Rounds, ringsym.LocationDiscoveryLowerBound(model, n))
	fmt.Printf("round breakdown: coordination %d, discovery %d\n", res.RoundsCoordination, res.RoundsDiscovery)
	for i, a := range res.PerAgent {
		marker := " "
		if a.IsLeader {
			marker = "*"
		}
		fmt.Printf("%s agent %2d (ID %3d): n=%d, map %v\n", marker, i, a.ID, a.N, shorten(a.Positions))
	}
	fmt.Println("every agent's map verified against the simulator's ground truth")
}

func shorten(v []int64) []int64 {
	if len(v) <= 6 {
		return v
	}
	return v[:6]
}
