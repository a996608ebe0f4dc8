// Command ringd is the scenario-serving daemon: a long-lived HTTP server
// that executes ring-network scenarios on demand, at most -workers of them
// at once across all requests, and (by default) deduplicates symmetric
// scenarios through the canonical memo cache — rotations, reflections and
// frame translations of one ring are a single computation.
//
// Usage:
//
//	ringd                              # serve on :8080 with the cache on
//	ringd -addr 127.0.0.1:9090 -cache off
//	ringd -cache 100000 -workers 8     # cache bounded to ~100k outcomes
//	ringd -store /var/lib/ringd        # persist results; warm-start on boot
//	ringd -store dir -store-stats      # one-shot store dump (JSON), then exit
//
// Endpoints (see internal/serve):
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/metrics/prometheus
//	curl -sN localhost:8080/v1/events?types=scenario'&'level=info
//	curl -s -X POST localhost:8080/v1/run -d '{"task":"coordinate","model":"basic","n":8,"seed":1}'
//	curl -s -X POST localhost:8080/v1/campaign -d '{"sizes":[8,16],"seeds":[1,2,3]}'
//
// No flag changes a record beyond its cache annotation: the circumference
// and the round bound are the campaign's, so a record depends on its
// scenario alone and every daemon of a fleet writes the bytes a local
// ringfarm sweep does.
//
// With -pprof, the net/http/pprof profiling handlers are additionally served
// under /debug/pprof/.  `ringfarm top -url http://localhost:8080` renders a
// live view from the event stream.
//
// A fleet is a `ringfarm -workers` roster of ringd daemons (see
// internal/fleet).  The coordinator leases scenario ranges to each daemon
// over /v1/campaign; daemons never talk to each other.
//
// With -store, outcomes additionally persist in a disk-backed
// content-addressed store (internal/store) of this daemon's own: it
// warm-starts from the directory on boot, so a restart serves previously
// seen orbits with zero computation.  -store-max caps the directory size
// (oldest segments evicted first); -store-stats prints the store's
// segment/index statistics as JSON and exits without serving.
//
// The daemon sheds load instead of queueing unboundedly: once -maxpending
// scenarios are queued or running, /v1/run and /v1/campaign answer 429 with
// a Retry-After header (cache-hit probes are still served).  Fleet
// coordinators honour the 429 with jittered backoff.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops,
// in-flight requests get a drain window, and then the daemon refuses any
// scenario not yet computing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"encoding/json"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
	"ringsym/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringd: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "scenarios computing at once across all requests (default GOMAXPROCS)")
	cacheFlag := flag.String("cache", "on", "memo cache: on, off, or a capacity in entries (each entry is O(n) memory)")
	maxN := flag.Int("maxn", 0, "largest network size a request may ask for (default 4096)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof profiling handlers under /debug/pprof/")
	maxPending := flag.Int("maxpending", 1024, "admission control: queued+running scenarios above which /v1/run and /v1/campaign answer 429 (0 disables)")
	storeDir := flag.String("store", "", "directory of the persistent result store (off when empty; requires the cache)")
	storeMax := flag.Int64("store-max", 0, "store size cap in bytes; oldest segments evicted first (0 = unbounded)")
	storeStats := flag.Bool("store-stats", false, "print the store's statistics as JSON and exit (requires -store)")
	flag.Parse()

	if *workers < 0 {
		usageError(fmt.Errorf("invalid -workers %d (must be >= 0; 0 means GOMAXPROCS)", *workers))
	}
	if *maxN < 0 {
		usageError(fmt.Errorf("invalid -maxn %d (must be >= 0; 0 means the default of 4096)", *maxN))
	}
	if *drain < 0 {
		usageError(fmt.Errorf("invalid -drain %v (must be >= 0)", *drain))
	}
	if *maxPending < 0 {
		usageError(fmt.Errorf("invalid -maxpending %d (must be >= 0; 0 disables admission control)", *maxPending))
	}
	cache, err := campaign.ParseCacheFlag(*cacheFlag)
	if err != nil {
		usageError(err)
	}
	if *storeMax < 0 {
		usageError(fmt.Errorf("invalid -store-max %d (must be >= 0; 0 means unbounded)", *storeMax))
	}
	if *storeDir == "" {
		if *storeMax != 0 {
			usageError(errors.New("-store-max is only meaningful with -store"))
		}
		if *storeStats {
			usageError(errors.New("-store-stats is only meaningful with -store"))
		}
	} else if cache == nil {
		usageError(errors.New("-store requires the cache (the store is its second tier); drop -cache off"))
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMax})
		if err != nil {
			log.Fatal(err)
		}
		if *storeStats {
			// One-shot ops dump: segments, index entries, total bytes.
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(st.Stats())
			st.Close()
			return
		}
		log.Printf("store %s: %d records in %d segments warm-started",
			*storeDir, st.Stats().IndexEntries, st.Stats().Segments)
		cache.AttachTier(st, nil)
	}

	pool := serve.New(serve.Options{
		Workers:    *workers,
		Cache:      cache,
		MaxN:       *maxN,
		Pprof:      *pprofFlag,
		MaxPending: *maxPending,
	})
	// No WriteTimeout here: it would cap the total duration of a streaming
	// /v1/campaign response; internal/serve bounds each record write with
	// its own deadline instead, so only stalled clients are cut off.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           pool.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	cacheState := "off"
	if cache != nil {
		cacheState = "on"
	}
	log.Printf("serving on %s (cache %s)", *addr, cacheState)

	select {
	case <-ctx.Done():
		log.Printf("shutting down (drain %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Shutdown leaves active connections (and their request
			// contexts) alive, and their scenarios keep computing;
			// force-close so the contexts cancel and each engine aborts
			// within one round.  A compute still finishing after the store
			// closes below has its write-through refused (store.ErrClosed).
			log.Printf("drain window expired (%v); closing active connections", err)
			srv.Close()
		}
		pool.Close()
		if cache != nil {
			cst := cache.Stats()
			log.Printf("cache at exit: %d entries, %d hits, %d misses, %d dedups, %d disk, %d evictions",
				cst.Entries, cst.Hits, cst.Misses, cst.Dedups, cst.DiskHits, cst.Evictions)
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("store close: %v", err)
			} else {
				sst := st.Stats()
				log.Printf("store at exit: %d records in %d segments (%d bytes)",
					sst.IndexEntries, sst.Segments, sst.TotalBytes)
			}
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

func usageError(err error) {
	fmt.Fprintf(os.Stderr, "ringd: %v\n\n", err)
	flag.Usage()
	os.Exit(2)
}
