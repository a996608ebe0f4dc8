// Command benchtables regenerates the evaluation artefacts of the paper:
// Table I, Table II, the reduction figures (Figures 1 and 2), the RingDist
// cost curve behind Figure 3 and the distinguisher-size experiment of
// Section IV.  Measured round counts are printed next to the paper's bounds.
//
// Usage:
//
//	benchtables [-tables] [-figures] [-distinguishers] [-sizes 16,32,64,128] [-seed 1] [-json BENCH_tables.json]
//
// With no selection flags everything is printed.  When the tables are
// generated, the per-cell measurements (setting, observed rounds, theoretical
// bound) are additionally written as machine-readable JSON so that successive
// runs can be compared automatically; -json ” disables the file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ringsym/internal/eval"
	"ringsym/internal/ring"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")

	tables := flag.Bool("tables", false, "print Table I and Table II")
	figures := flag.Bool("figures", false, "print the Figure 1/2 reductions and the Figure 3 curve")
	distinguishers := flag.Bool("distinguishers", false, "print the Section IV distinguisher experiment")
	engineBench := flag.Bool("engine", false, "measure engine rounds/sec, single-round vs leap execution")
	sizes := flag.String("sizes", "16,32,64,128", "comma-separated network sizes n")
	seed := flag.Int64("seed", 1, "seed for configurations and pseudo-random schedules")
	idFactor := flag.Int("idfactor", 4, "identifier bound N as a multiple of n")
	jsonPath := flag.String("json", "BENCH_tables.json", "write the table measurements as JSON to this file ('' disables)")
	engineJSONPath := flag.String("enginejson", "BENCH_engine.json", "write the engine throughput measurements as JSON to this file ('' disables)")
	flag.Parse()

	if !*tables && !*figures && !*distinguishers && !*engineBench {
		*tables, *figures, *distinguishers, *engineBench = true, true, true, true
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		log.Fatal(err)
	}
	cfg := eval.SweepConfig{Sizes: ns, IDBoundFactor: *idFactor, Seed: *seed}
	ctx := context.Background()

	if *tables {
		rows1, err := eval.TableRowsContext(ctx, eval.Table1Settings(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.Format("Table I - deterministic solutions in the general setting", rows1))
		rows2, err := eval.TableRowsContext(ctx, eval.Table2Settings(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.Format("Table II - deterministic solutions with a common sense of direction", rows2))
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rows1, rows2); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *figures {
		n := ns[len(ns)/2]
		fig1, err := eval.MeasureReductions(ctx, eval.Setting{Model: ring.Lazy}, n, *idFactor*n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.FormatReductions("Figure 1 - reductions among coordination problems (odd n / lazy / perceptive)", fig1))
		fig2, err := eval.MeasureReductions(ctx, eval.Setting{Model: ring.Basic}, n, *idFactor*n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.FormatReductions("Figure 2 - reductions among coordination problems (basic model, even n)", fig2))
		fig3, err := eval.MeasureRingDist(ctx, ns, *idFactor, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.FormatRingDist(fig3))
	}
	if *distinguishers {
		pairs := [][2]int{{8, 2}, {12, 2}, {16, 2}, {10, 3}, {12, 3}}
		samples, err := eval.MeasureDistinguishers(pairs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.FormatDistinguishers(samples))
	}
	if *engineBench {
		entries, err := measureEngine(ctx, ns, *seed)
		if err != nil {
			log.Fatal(err)
		}
		printEngine(entries)
		if *engineJSONPath != "" {
			raw, err := json.MarshalIndent(entries, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*engineJSONPath, append(raw, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// engineEntry is one engine throughput measurement: a constant-direction
// sweep workload on n agents driven either one round per crossing
// ("single", the per-round path) or in leap batches ("leap").  The file
// BENCH_engine.json tracks the repo's raw engine throughput across
// revisions, next to the round-count trends of BENCH_tables.json.
type engineEntry struct {
	N            int     `json:"n"`
	Mode         string  `json:"mode"` // "single" or "leap"
	Rounds       int     `json:"rounds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// Speedup is leap/single for the same n (set on leap entries only).
	Speedup float64 `json:"speedup,omitempty"`
}

// measureEngine measures single-round vs leap throughput per network size,
// on the shared constant-direction sweep workload (eval.EngineSweepProtocol —
// the same workload the BenchmarkEngineLeap* pair drives).
func measureEngine(ctx context.Context, ns []int, seed int64) ([]engineEntry, error) {
	const (
		singleRounds = 30_000
		leapRounds   = 1_000_000
		leapBatch    = 512
	)
	var entries []engineEntry
	for _, n := range ns {
		single, err := eval.MeasureEngineSweep(ctx, n, seed, singleRounds, 1)
		if err != nil {
			return nil, err
		}
		leap, err := eval.MeasureEngineSweep(ctx, n, seed, leapRounds, leapBatch)
		if err != nil {
			return nil, err
		}
		entries = append(entries,
			engineEntry{N: n, Mode: "single", Rounds: singleRounds, RoundsPerSec: single},
			engineEntry{N: n, Mode: "leap", Rounds: leapRounds, RoundsPerSec: leap, Speedup: leap / single},
		)
	}
	return entries, nil
}

func printEngine(entries []engineEntry) {
	fmt.Println("Engine throughput - constant-direction sweep, single-round vs leap execution")
	fmt.Println()
	fmt.Println("|    n | mode   |   rounds/sec | speedup |")
	fmt.Println("|-----:|--------|-------------:|--------:|")
	for _, e := range entries {
		speedup := ""
		if e.Speedup > 0 {
			speedup = fmt.Sprintf("%.1fx", e.Speedup)
		}
		fmt.Printf("| %4d | %-6s | %12.0f | %7s |\n", e.N, e.Mode, e.RoundsPerSec, speedup)
	}
	fmt.Println()
}

// tableEntry is one measured cell in the machine-readable export.
type tableEntry struct {
	Table       string  `json:"table"`
	Setting     string  `json:"setting"`
	Model       string  `json:"model"`
	OddN        bool    `json:"odd_n"`
	CommonSense bool    `json:"common_sense"`
	Problem     string  `json:"problem"`
	N           int     `json:"n"`
	IDBound     int     `json:"id_bound"`
	Rounds      int     `json:"rounds"`
	Bound       float64 `json:"bound"`
	BoundStr    string  `json:"bound_str"`
	Solvable    bool    `json:"solvable"`
}

// writeJSON exports the Table I/II measurements for trend tracking across
// runs and revisions.
func writeJSON(path string, rows1, rows2 []eval.Measurement) error {
	var entries []tableEntry
	add := func(table string, rows []eval.Measurement) {
		for _, m := range rows {
			entries = append(entries, tableEntry{
				Table:       table,
				Setting:     m.Setting.Name,
				Model:       m.Setting.Model.String(),
				OddN:        m.Setting.OddN,
				CommonSense: m.Setting.CommonSense,
				Problem:     string(m.Problem),
				N:           m.N,
				IDBound:     m.IDBound,
				Rounds:      m.Rounds,
				Bound:       m.Bound,
				BoundStr:    m.BoundStr,
				Solvable:    m.Solvable,
			})
		}
	}
	add("I", rows1)
	add("II", rows2)
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 5 {
			return nil, fmt.Errorf("invalid size %q (need integers >= 5)", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
