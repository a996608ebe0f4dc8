// Command ringbench is the repository's end-to-end and per-layer benchmark.
// It drives the system only through its public entry points — the campaign
// runner, the ringd HTTP handler on a loopback server, the fleet
// coordinator and the persistent store — over five fixed workloads, checks
// every output against ground truth, and prints each metric by name with its
// unit.  See README.md for the workloads, the metrics and the A/B method.
//
// From the repository root, bench/run.sh builds and runs it:
//
//	bash bench/run.sh -seed 1 -json results.json                # all five, interleaved
//	bash bench/run.sh -workload grid-local -seed 1 -seconds 20
//	bash bench/run.sh -seed 1 -trace 1 -spans spans.json        # per-layer metrics
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  Any failed check makes the exit
// status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
)

// config is the parsed command line.
type config struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
	tmp       string
	golden    string
	spans     string
	jsonOut   string
}

func main() {
	var cfg config
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (interleaved)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: drives the serve-mixed request stream and fleet backoff jitter")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "scratch directory for store segments (removed at exit)")
	flag.StringVar(&cfg.golden, "golden", "testdata/golden/SHA256SUMS", "golden checksum file pinning the 216-scenario sweep")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: write the recorded spans to this file")
	flag.StringVar(&cfg.jsonOut, "json", "", "write the full results (metrics with spreads, counts, host) to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	switch {
	case *workload == "all":
		cfg.workloads = workloadNames
	case slices.Contains(workloadNames, *workload):
		cfg.workloads = []string{*workload}
	default:
		fail(fmt.Errorf("unknown workload %q (want one of %s or all)", *workload, strings.Join(workloadNames, ", ")))
	}
	if cfg.seconds < 1 {
		fail(fmt.Errorf("-seconds must be positive"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fail(err)
	}
	res.print(os.Stdout, cfg.trace)
	if cfg.jsonOut != "" {
		if err := writeJSON(cfg.jsonOut, res); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(res.contract(cfg.trace))
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		stop()
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ringbench:", err)
	os.Exit(2)
}

// host describes the machine and build a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+dirty"
		}
	}
	return h
}

// writeJSON writes the full results, host description included.  The host
// is read here and not on the contract path, which reads nothing outside
// the working tree.
func writeJSON(path string, res *results) error {
	out := struct {
		Host host `json:"host"`
		*results
	}{hostInfo(), res}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
