// Command ringfarm runs large parallel campaigns of ring-network scenarios:
// it expands a declarative scenario matrix (from flags or a JSON spec file),
// executes it on a worker pool sized to the machine, and writes three
// artefacts — a per-scenario JSONL record stream, a per-setting CSV summary
// and a Markdown summary — all byte-identical across repeated runs of the
// same spec.  A campaign can be split across invocations (or machines) with
// -shard i/m; the shards are contiguous, so concatenating the JSONL exports
// of shards 0..m-1 reproduces the unsharded export exactly.
//
// Usage:
//
//	ringfarm -sizes 8,16,32 -seeds 1:5 -out sweep/
//	ringfarm -models perceptive -tasks discover -sizes 64 -seeds 1:100
//	ringfarm -spec sweep.json -shard 0/4 -out sweep-shard0/
//	ringfarm -sizes 16 -dryrun          # list the scenarios and exit
//	ringfarm -sizes 16 -phases 0:7 -reflect -cache on
//	ringfarm -sizes 16 -cache on -store results.store
//	ringfarm -sizes 32 -seeds 1:50 -top          # live top view while running
//	ringfarm -sizes 16 -events sweep.events.ndjson
//	ringfarm top -url http://localhost:8080      # watch a running ringd
//	ringfarm -workers host1:8080,host2:8080 -spec sweep.json  # fleet mode
//
// The live progress line reports throughput, engine rounds/sec and (for
// cached sweeps) the symmetry dedup ratio; -quiet suppresses it, -top
// replaces it with a full live view fed by the structured-event bus
// (internal/obs), and `ringfarm top` renders the same view for a remote
// ringd daemon.  -events captures the sweep's event stream to an NDJSON
// file in the exact wire format ringd's GET /v1/events serves.
//
// With -cache on (or -cache <capacity>), scenario outcomes are memoised
// under their canonical symmetry key (internal/canon): rotations,
// reflections and frame translations of one ring — such as the variants a
// -phases/-reflect sweep enumerates — are computed once and the summary
// artefacts gain per-setting miss/hit/dedup columns.  The default -cache off
// keeps the artefacts byte-identical to cache-less builds.  Adding
// -store <dir> backs the cache with the persistent result store of
// internal/store — the same directory a ringd -store daemon uses — so a
// repeated sweep is served from disk instead of recomputed.
//
// A spec file is the JSON form of the matrix, e.g.:
//
//	{"models": ["basic", "lazy"], "sizes": [16, 32], "seeds": [1, 2, 3],
//	 "parities": ["odd", "even"], "chirality": ["mixed", "common"],
//	 "common_sense": [false, true], "tasks": ["coordinate", "discover"]}
//
// Fleet mode: when -workers is a comma-separated roster of ringd base URLs
// instead of a pool size, the sweep is coordinated across those daemons by
// internal/fleet — idle workers are leased shrinking ranges of the index
// space, the unstreamed remainder of a dead worker's lease is re-leased
// (visible as fleet.* events in -events and as per-worker rows in -top), and
// the merged artefacts are byte-identical to a local run of the same spec.
// -lease caps the lease size.  The
// roster is the whole fleet: its daemons talk only to the coordinator,
// through leases, and each keeps its own -cache and -store.
//
// Local and fleet sweeps share one code path and differ only in who executes
// the scenarios.  An interrupt (SIGINT) keeps the records written so far,
// skips the summaries and exits 1; so does a failed record or, on a fleet,
// a quarantined range.
//
// Specs are decoded strictly: a typo'd axis name is an error, not a silent
// fallback to the defaults.  The tasks axis accepts the two tasks of
// internal/task, coordinate and discover (see ringsim -tasks, or
// GET /v1/tasks on ringd); it defaults to both.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/fleet"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringfarm: ")

	// `ringfarm top` is a subcommand with its own flags: a live view over a
	// running ringd daemon's /v1/events stream.
	if len(os.Args) > 1 && os.Args[1] == "top" {
		if err := runTop(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	spec := flag.String("spec", "", "JSON sweep-spec file (overrides the matrix flags)")
	tasks := flag.String("tasks", "", "comma-separated tasks: "+strings.Join(task.Names(), ",")+" (default both)")
	models := flag.String("models", "", "comma-separated models: basic,lazy,perceptive (default all)")
	parities := flag.String("parities", "", "comma-separated parities: odd,even (default both)")
	chirality := flag.String("chirality", "", "comma-separated chirality regimes: mixed,common (default both)")
	commonSense := flag.String("commonsense", "", "comma-separated common-sense flags: false,true (default false)")
	sizes := flag.String("sizes", "", "comma-separated network sizes n (default 16,32)")
	seeds := flag.String("seeds", "", "seeds, as a list 1,2,3 or a range 1:100 (default 1)")
	phases := flag.String("phases", "", "ring-rotation phases, as a list 0,1,2 or a range 0:7 (default 0)")
	reflect := flag.Bool("reflect", false, "also sweep the mirrored variant of every scenario")
	idFactor := flag.Int("idfactor", 0, "identifier bound N as a multiple of n (default 4)")
	shard := flag.String("shard", "", "run only shard i/m of the campaign (e.g. 0/4)")
	workersFlag := flag.String("workers", "", "local worker-pool size (default GOMAXPROCS), or a comma-separated ringd roster host1:8080,host2:8080 to run the sweep on a fleet")
	lease := flag.Int("lease", 0, "fleet mode: at most this many scenario indices per lease (default: no cap; leases shrink from unleased/(2*workers))")
	cacheFlag := flag.String("cache", "off", "memoise outcomes under their canonical symmetry key: off, on, or a capacity in entries")
	storeDir := flag.String("store", "", "back the cache with the on-disk result store in this directory (shared with ringd -store); requires -cache")
	out := flag.String("out", "ringfarm-out", "output directory for records.jsonl, summary.csv, summary.md")
	dryrun := flag.Bool("dryrun", false, "print the scenario list and exit without running")
	quiet := flag.Bool("quiet", false, "suppress the live progress line on stderr")
	events := flag.String("events", "", "also write the sweep's structured events (internal/obs) to this NDJSON file")
	top := flag.Bool("top", false, "render the live top view on stderr instead of the one-line progress ticker")
	flag.Parse()

	// Validate flags up front, before any expansion or execution, so a bad
	// invocation fails with a usage message instead of a downstream panic or
	// a silently empty sweep.
	i, m, err := campaign.ParseShard(*shard)
	if err != nil {
		usageError(err)
	}
	// -workers is overloaded: a bare integer sizes the local pool, anything
	// else is a fleet roster (validated by fleet.ParseWorkers up front).
	workers, roster := 0, []string(nil)
	if *workersFlag != "" {
		if n, err := strconv.Atoi(*workersFlag); err == nil {
			workers = n
		} else if roster, err = fleet.ParseWorkers(*workersFlag); err != nil {
			usageError(err)
		}
	}
	if workers < 0 {
		usageError(fmt.Errorf("invalid -workers %d (must be >= 0; 0 means GOMAXPROCS)", workers))
	}
	if *lease < 0 {
		usageError(fmt.Errorf("invalid -lease %d (must be >= 0; 0 means no cap)", *lease))
	}
	fleetMode := roster != nil
	if !fleetMode && *lease > 0 {
		usageError(fmt.Errorf("-lease is only meaningful in fleet mode (a -workers roster)"))
	}
	if *idFactor < 0 {
		usageError(fmt.Errorf("invalid -idfactor %d (must be >= 0; 0 means the default of 4)", *idFactor))
	}
	cache, err := campaign.ParseCacheFlag(*cacheFlag)
	if err != nil {
		usageError(err)
	}
	matrix, err := buildMatrix(*spec, *tasks, *models, *parities, *chirality, *commonSense, *sizes, *seeds, *phases, *reflect, *idFactor)
	if err != nil {
		usageError(err)
	}
	scenarios, err := matrix.Expand()
	if err != nil {
		usageError(err)
	}
	total := len(scenarios)
	if fleetMode {
		// Fleet mode: the matrix is dispatched to remote ringd workers in
		// lease ranges; local-execution flags make no sense here.
		if *shard != "" {
			usageError(fmt.Errorf("-shard cannot combine with a fleet roster: the coordinator leases the whole index space itself"))
		}
		if *cacheFlag != "off" {
			usageError(fmt.Errorf("-cache is decided by each ringd worker (its own -cache flag), not by the fleet coordinator"))
		}
		if *storeDir != "" {
			usageError(fmt.Errorf("-store is decided by each ringd worker (its own -store flag), not by the fleet coordinator"))
		}
	}
	scenarios, err = campaign.Shard(scenarios, i, m)
	if err != nil {
		usageError(err)
	}
	if len(scenarios) == 0 {
		log.Printf("warning: shard %d/%d selects 0 of %d scenarios (more shards than scenarios?)", i, m, total)
	}
	if *dryrun {
		for _, sc := range scenarios {
			fmt.Printf("%6d  %s\n", sc.Index, sc.Key())
		}
		fmt.Printf("%d scenarios (shard %d/%d of %d)\n", len(scenarios), i, m, total)
		return
	}
	var j job
	var st *store.Store
	if fleetMode {
		j = fleetJob(matrix, total, roster, *lease)
	} else {
		// The store opens after the dryrun exit so listing scenarios never
		// creates (or locks) a store directory.
		if *storeDir != "" {
			if cache == nil {
				usageError(fmt.Errorf("-store requires the cache (the store is its second tier); add -cache on"))
			}
			if st, err = store.Open(*storeDir, store.Options{}); err != nil {
				log.Fatal(err)
			}
			cache.AttachTier(st, nil)
			log.Printf("store: %s (%d records on disk)", *storeDir, st.Len())
		}
		j = localJob(scenarios, i, m, total, campaign.Options{Workers: workers, Cache: cache})
	}
	err = runSweep(j, *out, *quiet, *top, *events)
	if st != nil {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// usageError prints the flag error together with the usage text and exits
// with the conventional bad-usage status.
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "ringfarm: %v\n\n", err)
	flag.Usage()
	os.Exit(2)
}

// job is what differs between a local and a fleet sweep; runSweep does
// every other step of both.
type job struct {
	banner string // announces the run on stderr
	total  int    // records a complete run writes
	// run writes every record's JSON line to w and calls onRecord with it,
	// both in scenario-index order, and returns ctx's error when cut short.
	run func(ctx context.Context, w io.Writer, onRecord func(campaign.Record)) error
	// cacheColumns reports whether the summaries carry the cache columns.
	cacheColumns func(agg *campaign.Aggregator) bool
	// footer prints the mode's closing lines and returns the error, if
	// any, that fails a finished run besides failed records.
	footer func(agg *campaign.Aggregator) error
}

// localJob runs the scenarios (shard i/m of total) on this machine's worker
// pool.  The summaries carry the cache columns exactly when opts has a
// cache, whether or not any record touched it, so a cached sweep's schema
// is stable (see campaign.Aggregator).
func localJob(scenarios []campaign.Scenario, shardI, shardM, total int, opts campaign.Options) job {
	return job{
		banner: fmt.Sprintf("running %d scenarios (shard %d/%d of %d)", len(scenarios), shardI, shardM, total),
		total:  len(scenarios),
		run: func(ctx context.Context, w io.Writer, onRecord func(campaign.Record)) error {
			return campaign.Run(ctx, scenarios, opts, w, onRecord)
		},
		cacheColumns: func(*campaign.Aggregator) bool { return opts.Cache != nil },
		footer: func(agg *campaign.Aggregator) error {
			fmt.Printf("scenario cpu time: %v\n", agg.Wall.Round(time.Millisecond))
			if opts.Cache == nil {
				return nil
			}
			served := agg.CacheHits + agg.CacheDedups
			ratio := 0.0
			if looked := agg.CacheMisses + served; looked > 0 {
				ratio = float64(served) / float64(looked)
			}
			cs := opts.Cache.Stats()
			fmt.Printf("cache: %d computed, %d served from symmetry (%d hits + %d dedups, dedup ratio %.1f%%), %d evictions\n",
				agg.CacheMisses, served, agg.CacheHits, agg.CacheDedups, 100*ratio, cs.Evictions)
			if cs.DiskHits > 0 {
				fmt.Printf("store: %d outcomes served from disk without computation\n", cs.DiskHits)
			}
			return nil
		},
	}
}

// fleetJob dispatches the matrix's total scenarios to the ringd roster
// through internal/fleet, whose merged stream is byte-identical to a local
// run's.  The summaries carry the cache columns exactly when the workers
// annotated records: the coordinator cannot see their -cache flags.
// Quarantined ranges fail the run.
func fleetJob(m campaign.Matrix, total int, roster []string, lease int) job {
	var res fleet.Result
	return job{
		banner: fmt.Sprintf("running %d scenarios on a fleet of %d workers", total, len(roster)),
		total:  total,
		run: func(ctx context.Context, w io.Writer, onRecord func(campaign.Record)) error {
			var err error
			res, err = fleet.Run(ctx, m, fleet.Options{Workers: roster, LeaseSize: lease, Records: w, OnRecord: onRecord})
			return err
		},
		cacheColumns: func(a *campaign.Aggregator) bool {
			return a.CacheMisses+a.CacheHits+a.CacheDedups+a.CacheDisk > 0
		},
		footer: func(*campaign.Aggregator) error {
			for _, w := range res.Workers {
				state := "up"
				if !w.Up {
					state = "down"
				}
				fmt.Printf("  worker %s: %d records, %d leases, %d failed attempts (%s)\n",
					w.Addr, w.Records, w.Leases, w.Fails, state)
			}
			for _, q := range res.Quarantined {
				log.Printf("quarantined: scenario indices [%d, %d) abandoned after repeated lease failures", q.Lo, q.Hi)
			}
			if len(res.Quarantined) > 0 {
				return fmt.Errorf("%d index ranges quarantined; records.jsonl is incomplete", len(res.Quarantined))
			}
			return nil
		},
	}
}

// runSweep runs every ringfarm sweep, local or fleet.  It runs j under
// a context that SIGINT cancels, with the optional event log and top view
// attached, into outDir/records.jsonl, which it syncs and closes, both
// checked, on every path.  It draws the progress line, and after a complete
// run writes summary.csv and summary.md and prints the totals and j's
// footer; the summaries of an earlier run into outDir are removed first, so
// they never sit beside records they do not summarise.  An interrupted run
// keeps the records written so far and fails; so does a finished run with a
// failed record or a failing footer.
func runSweep(j job, outDir string, quiet, top bool, eventsPath string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Optional event consumers attach BEFORE the run so the campaign.start
	// event is theirs too; with neither flag the bus has no subscriber and
	// every emit site stays a single atomic load.
	if eventsPath != "" {
		stopLog, err := startEventLog(ctx, eventsPath)
		if err != nil {
			return err
		}
		defer func() {
			if err := stopLog(); err != nil {
				log.Printf("event log: %v", err)
			}
		}()
	}
	stopTop := func() {}
	if top {
		quiet = true // the top view replaces the one-line ticker
		stopTop = startLocalTop(ctx)
		defer stopTop() // idempotent; also called before the summary prints
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"summary.csv", "summary.md"} {
		if err := os.Remove(filepath.Join(outDir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	f, err := os.Create(filepath.Join(outDir, "records.jsonl"))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ringfarm: %s\n", j.banner)
	agg := campaign.NewAggregator()
	start := time.Now()
	engStart := engine.CounterSnapshot()
	lastProgress := time.Time{}
	err = j.run(ctx, f, func(rec campaign.Record) {
		agg.Add(rec)
		if quiet || time.Since(lastProgress) < 100*time.Millisecond {
			return
		}
		lastProgress = time.Now()
		elapsed := time.Since(start).Seconds()
		line := fmt.Sprintf("\rringfarm: %d/%d done  ok=%d failed=%d unsolvable=%d  %.1f scen/s",
			agg.Total, j.total, agg.OK, agg.Failed, agg.Unsolvable, float64(agg.Total)/elapsed)
		// Rounds run in this process only on a local sweep.
		if rounds := engine.CounterSnapshot().Rounds - engStart.Rounds; rounds > 0 {
			line += fmt.Sprintf("  %s rounds/s", humanCount(float64(rounds)/elapsed))
		}
		if served := agg.CacheHits + agg.CacheDedups; served+agg.CacheMisses > 0 {
			line += fmt.Sprintf("  dedup %.1f%%", 100*float64(served)/float64(served+agg.CacheMisses))
		}
		fmt.Fprint(os.Stderr, line, " ")
	})
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("campaign interrupted after %d of %d scenarios", agg.Total, j.total)
		}
		return err
	}
	stopTop() // final frame before the summary, so the summary stays visible

	md, err := writeSummaries(outDir, agg.Summary(), j.cacheColumns(agg))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%s\n", md)
	fmt.Printf("%d scenarios in %v (%.1f scenarios/sec): ok=%d failed=%d unsolvable=%d\n",
		agg.Total, elapsed.Round(time.Millisecond), float64(agg.Total)/elapsed.Seconds(),
		agg.OK, agg.Failed, agg.Unsolvable)
	footErr := j.footer(agg)
	fmt.Printf("artefacts: %s\n", outDir)
	if footErr != nil {
		return footErr
	}
	if agg.Failed > 0 {
		return fmt.Errorf("%d scenarios failed (see %s)", agg.Failed, filepath.Join(outDir, "records.jsonl"))
	}
	return nil
}

// writeSummaries writes summary.csv and summary.md into outDir and returns
// the Markdown table.  The cache columns appear only when cache is set, so
// cache-off artefacts stay byte-identical to cache-less builds.
func writeSummaries(outDir string, rows []campaign.SummaryRow, cache bool) (string, error) {
	csvF, err := os.Create(filepath.Join(outDir, "summary.csv"))
	if err != nil {
		return "", err
	}
	if err := campaign.WriteSummaryCSV(csvF, rows, cache); err != nil {
		csvF.Close()
		return "", err
	}
	if err := csvF.Close(); err != nil {
		return "", err
	}
	md := campaign.FormatSummaryMarkdown(rows, cache)
	return md, os.WriteFile(filepath.Join(outDir, "summary.md"), []byte(md), 0o644)
}

// buildMatrix assembles the campaign matrix from a spec file or flags.
func buildMatrix(spec, tasks, models, parities, chirality, commonSense, sizes, seeds, phases string, reflect bool, idFactor int) (campaign.Matrix, error) {
	var m campaign.Matrix
	if spec != "" {
		f, err := os.Open(spec)
		if err != nil {
			return m, err
		}
		defer f.Close()
		m, err := campaign.DecodeMatrix(f)
		if err != nil {
			return m, fmt.Errorf("spec %s: %w", spec, err)
		}
		return m, nil
	}
	for _, t := range splitList(tasks) {
		m.Tasks = append(m.Tasks, campaign.Task(t))
	}
	m.Models = splitList(models)
	m.Parities = splitList(parities)
	m.Chirality = splitList(chirality)
	for _, s := range splitList(commonSense) {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return m, fmt.Errorf("invalid -commonsense value %q", s)
		}
		m.CommonSense = append(m.CommonSense, v)
	}
	for _, s := range splitList(sizes) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return m, fmt.Errorf("invalid size %q", s)
		}
		m.Sizes = append(m.Sizes, v)
	}
	var err error
	m.Seeds, err = parseSeeds(seeds)
	if err != nil {
		return m, err
	}
	m.Phases, err = parsePhases(phases)
	if err != nil {
		return m, err
	}
	if reflect {
		m.Reflections = []bool{false, true}
	}
	m.IDBoundFactor = idFactor
	return m, nil
}

// parsePhases accepts "0,1,2" or an inclusive range "0:7", like parseSeeds.
func parsePhases(s string) ([]int, error) {
	seeds, err := parseSeeds(s)
	if err != nil {
		return nil, fmt.Errorf("invalid -phases: %w", err)
	}
	out := make([]int, len(seeds))
	for i, v := range seeds {
		out[i] = int(v)
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseSeeds accepts "1,2,3" or an inclusive range "1:100".
func parseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		from, err1 := strconv.ParseInt(lo, 10, 64)
		to, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || to < from {
			return nil, fmt.Errorf("invalid seed range %q (want from:to)", s)
		}
		out := make([]int64, 0, to-from+1)
		for v := from; v <= to; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid seed %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
