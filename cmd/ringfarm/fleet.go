package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/fleet"
)

// runFleet drives the sweep across a ringd roster instead of the local pool:
// internal/fleet expands the matrix once, leases index ranges to the
// workers, and streams the merged records back in index order, so the
// artefacts this writes are byte-identical to runCampaign's for the same
// spec.  The summary uses the cache columns exactly when the workers did —
// cache annotations travel in the records, so a roster of cached daemons
// yields the same artefact shape as a local -cache on sweep.
func runFleet(m campaign.Matrix, total int, roster []string, lease int, listen, outDir string, quiet, top bool, eventsPath string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	jsonlF, err := os.Create(filepath.Join(outDir, "records.jsonl"))
	if err != nil {
		return err
	}
	defer jsonlF.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

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
		quiet = true
		stopTop = startLocalTop(ctx)
		defer stopTop()
	}

	agg := campaign.NewAggregator()
	cached := false
	start := time.Now()
	lastProgress := time.Time{}
	coord, err := fleet.New(m, fleet.Options{
		Workers:   roster,
		LeaseSize: lease,
		Records:   jsonlF,
		OnRecord: func(rec campaign.Record) {
			agg.Add(rec)
			if rec.Cache != "" {
				cached = true
			}
			if !quiet && time.Since(lastProgress) > 100*time.Millisecond {
				lastProgress = time.Now()
				elapsed := time.Since(start).Seconds()
				fmt.Fprintf(os.Stderr, "\rringfarm: %d/%d merged  ok=%d failed=%d unsolvable=%d  %.1f scen/s ",
					agg.Total, total, agg.OK, agg.Failed, agg.Unsolvable, float64(agg.Total)/elapsed)
			}
		},
	})
	if err != nil {
		return err
	}

	if listen != "" {
		ctrl := &http.Server{Addr: listen, Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ctrl.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("fleet control plane: %v", err)
			}
		}()
		defer ctrl.Close()
	}

	fmt.Fprintf(os.Stderr, "ringfarm: running %d scenarios on a fleet of %d workers\n", total, len(roster))
	res, runErr := coord.Run(ctx)
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if runErr != nil {
		return fmt.Errorf("fleet sweep interrupted after %d of %d scenarios", res.Merged, res.Total)
	}
	if err := jsonlF.Sync(); err != nil {
		return err
	}
	stopTop()

	md, err := writeSummaries(outDir, agg.Summary(), cached)
	if err != nil {
		return err
	}

	elapsed := time.Since(start)
	fmt.Printf("%s\n", md)
	fmt.Printf("%d scenarios in %v (%.1f scenarios/sec) across %d workers: ok=%d failed=%d unsolvable=%d\n",
		res.Merged, elapsed.Round(time.Millisecond), float64(res.Merged)/elapsed.Seconds(),
		len(res.Workers), agg.OK, agg.Failed, agg.Unsolvable)
	for _, w := range res.Workers {
		state := "up"
		if !w.Up {
			state = "down"
		}
		fmt.Printf("  worker %s: %d records, %d leases, %d failed attempts (%s)\n",
			w.Addr, w.Records, w.Leases, w.Fails, state)
	}
	fmt.Printf("artefacts: %s\n", outDir)
	if len(res.Quarantined) > 0 {
		for _, q := range res.Quarantined {
			log.Printf("quarantined: scenario indices [%d, %d) abandoned after repeated lease failures", q.Lo, q.Hi)
		}
		return fmt.Errorf("%d index ranges quarantined; records.jsonl is incomplete", len(res.Quarantined))
	}
	if agg.Failed > 0 {
		return fmt.Errorf("%d scenarios failed (see %s)", agg.Failed, filepath.Join(outDir, "records.jsonl"))
	}
	return nil
}
