package campaign

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ringsym/internal/obs"
)

// GroupKey identifies one setting of the sweep: records sharing a key are
// aggregated together (seeds, phases and reflections are folded — symmetric
// framings of one setting are the same experiment — everything else
// distinguishes).
type GroupKey struct {
	Task           Task   `json:"task"`
	Model          string `json:"model"`
	OddN           bool   `json:"odd_n"`
	MixedChirality bool   `json:"mixed_chirality"`
	CommonSense    bool   `json:"common_sense"`
	N              int    `json:"n"`
}

func keyOf(sc Scenario) GroupKey {
	return GroupKey{
		Task:           sc.Task,
		Model:          sc.Model,
		OddN:           sc.N%2 == 1,
		MixedChirality: sc.MixedChirality,
		CommonSense:    sc.CommonSense,
		N:              sc.N,
	}
}

// groupStats is the streaming state of one group.  Rounds are folded into a
// value→count histogram, which gives exact percentiles with memory bounded
// by the number of distinct round counts, not the number of records.
type groupStats struct {
	count      int
	failed     int
	unsolvable int
	min, max   int
	sum        int64
	hist       map[int]int
	ratioSum   float64
	ratioCount int
	wall       time.Duration
	// Memo-cache service counts (zero when the cache is disabled).  The
	// miss count and the hit+dedup sum are deterministic for a fixed sweep;
	// the hit/dedup split depends on worker scheduling.
	cacheMisses int
	cacheHits   int
	cacheDedups int
	cacheDisk   int
	cachePeer   int
}

// Aggregator folds a record stream into per-group statistics without
// retaining the records.  It is not safe for concurrent use; feed it from
// one callback that is never called concurrently, such as Run's onRecord or
// fleet.Options.OnRecord, which both deliver records in index order.
type Aggregator struct {
	groups map[GroupKey]*groupStats
	// Totals over the whole stream.
	Total      int
	OK         int
	Failed     int
	Unsolvable int
	Wall       time.Duration
	// Cache totals over the whole stream (zero when the cache is disabled).
	// The summary writers emit cache columns only when explicitly asked (the
	// *Cache variants): a cached sweep must produce a stable artefact schema
	// even when no record happened to touch the cache (e.g. all unsolvable).
	CacheMisses int
	CacheHits   int
	CacheDedups int
	// CacheDisk / CachePeer count records served by the persistent-store
	// tier (local disk and fleet peers respectively); zero unless a store
	// is attached.
	CacheDisk int
	CachePeer int
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{groups: make(map[GroupKey]*groupStats)}
}

// Add folds one record into the aggregate.
func (a *Aggregator) Add(rec Record) {
	a.Total++
	a.Wall += rec.Wall
	key := keyOf(rec.Scenario)
	g := a.groups[key]
	if g == nil {
		g = &groupStats{hist: make(map[int]int)}
		a.groups[key] = g
	}
	g.count++
	g.wall += rec.Wall
	switch rec.Cache {
	case "miss":
		a.CacheMisses++
		g.cacheMisses++
	case "hit":
		a.CacheHits++
		g.cacheHits++
	case "dedup":
		a.CacheDedups++
		g.cacheDedups++
	case "disk":
		a.CacheDisk++
		g.cacheDisk++
	case "peer":
		a.CachePeer++
		g.cachePeer++
	}
	switch rec.Status {
	case StatusFailed:
		a.Failed++
		g.failed++
		return
	case StatusUnsolvable:
		a.Unsolvable++
		g.unsolvable++
		return
	}
	a.OK++
	if g.count-g.failed-g.unsolvable == 1 || rec.Rounds < g.min {
		g.min = rec.Rounds
	}
	if rec.Rounds > g.max {
		g.max = rec.Rounds
	}
	g.sum += int64(rec.Rounds)
	g.hist[rec.Rounds]++
	if rec.Bound > 0 {
		g.ratioSum += float64(rec.Rounds) / rec.Bound
		g.ratioCount++
	}
}

// SummaryRow is the aggregate of one group.
type SummaryRow struct {
	GroupKey
	Count      int `json:"count"`
	Failed     int `json:"failed"`
	Unsolvable int `json:"unsolvable"`
	// Round statistics over the ok records of the group.
	MinRounds  int     `json:"min_rounds"`
	MaxRounds  int     `json:"max_rounds"`
	MeanRounds float64 `json:"mean_rounds"`
	P50Rounds  int     `json:"p50_rounds"`
	P90Rounds  int     `json:"p90_rounds"`
	P99Rounds  int     `json:"p99_rounds"`
	// BoundRatio is the mean observed/bound ratio (0 when no bound applies).
	BoundRatio float64 `json:"bound_ratio"`
	// Memo-cache service counts for the group (all zero when the cache was
	// disabled; see Record.Cache for the determinism contract).
	CacheMisses int `json:"cache_misses,omitempty"`
	CacheHits   int `json:"cache_hits,omitempty"`
	CacheDedups int `json:"cache_dedups,omitempty"`
	CacheDisk   int `json:"cache_disk,omitempty"`
	CachePeer   int `json:"cache_peer,omitempty"`
}

// Summary returns one row per group, deterministically ordered.
func (a *Aggregator) Summary() []SummaryRow {
	keys := make([]GroupKey, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	rows := make([]SummaryRow, 0, len(keys))
	for _, k := range keys {
		g := a.groups[k]
		row := SummaryRow{
			GroupKey:    k,
			Count:       g.count,
			Failed:      g.failed,
			Unsolvable:  g.unsolvable,
			CacheMisses: g.cacheMisses,
			CacheHits:   g.cacheHits,
			CacheDedups: g.cacheDedups,
			CacheDisk:   g.cacheDisk,
			CachePeer:   g.cachePeer,
		}
		ok := g.count - g.failed - g.unsolvable
		if ok > 0 {
			row.MinRounds = g.min
			row.MaxRounds = g.max
			row.MeanRounds = float64(g.sum) / float64(ok)
			row.P50Rounds = obs.Percentile(g.hist, ok, 50)
			row.P90Rounds = obs.Percentile(g.hist, ok, 90)
			row.P99Rounds = obs.Percentile(g.hist, ok, 99)
		}
		if g.ratioCount > 0 {
			row.BoundRatio = g.ratioSum / float64(g.ratioCount)
		}
		rows = append(rows, row)
	}
	return rows
}

func lessKey(a, b GroupKey) bool {
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	if a.Model != b.Model {
		return a.Model < b.Model
	}
	if a.OddN != b.OddN {
		return a.OddN
	}
	if a.MixedChirality != b.MixedChirality {
		return !a.MixedChirality
	}
	if a.CommonSense != b.CommonSense {
		return !a.CommonSense
	}
	return a.N < b.N
}

func (k GroupKey) label() (parity, chir, cs string) {
	parity = ParityEven
	if k.OddN {
		parity = ParityOdd
	}
	chir = ChiralityCommon
	if k.MixedChirality {
		chir = ChiralityMixed
	}
	cs = "no"
	if k.CommonSense {
		cs = "yes"
	}
	return parity, chir, cs
}

// WriteSummaryCSV writes the summary rows as CSV.  Output is deterministic
// for a fixed record multiset.  cache adds the cache service columns (misses,
// hits, dedups, disk, peer); pass it only for sweeps that ran with a cache,
// so cache-off artefacts stay byte-identical to cache-less builds.
func WriteSummaryCSV(w io.Writer, rows []SummaryRow, cache bool) error {
	header := "task,model,parity,chirality,common_sense,n,count,failed,unsolvable,min_rounds,max_rounds,mean_rounds,p50_rounds,p90_rounds,p99_rounds,bound_ratio"
	if cache {
		header += ",cache_misses,cache_hits,cache_dedups,cache_disk,cache_peer"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range rows {
		parity, chir, cs := r.GroupKey.label()
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%.3f,%d,%d,%d,%.4f",
			r.Task, r.Model, parity, chir, cs, r.N,
			r.Count, r.Failed, r.Unsolvable,
			r.MinRounds, r.MaxRounds, r.MeanRounds,
			r.P50Rounds, r.P90Rounds, r.P99Rounds, r.BoundRatio); err != nil {
			return err
		}
		if cache {
			if _, err := fmt.Fprintf(w, ",%d,%d,%d,%d,%d", r.CacheMisses, r.CacheHits, r.CacheDedups, r.CacheDisk, r.CachePeer); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// FormatSummaryMarkdown renders the summary rows as a Markdown table; cache
// adds the cache service columns, as in WriteSummaryCSV.
func FormatSummaryMarkdown(rows []SummaryRow, cache bool) string {
	var b strings.Builder
	b.WriteString("| task | model | parity | chirality | common sense | n | count | failed | unsolvable | min | max | mean | p50 | p90 | p99 | obs/bound |")
	if cache {
		b.WriteString(" miss | hit | dedup | disk | peer |")
	}
	b.WriteString("\n")
	b.WriteString("|---|---|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	if cache {
		b.WriteString("---:|---:|---:|---:|---:|")
	}
	b.WriteString("\n")
	for _, r := range rows {
		parity, chir, cs := r.GroupKey.label()
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %d | %d | %d | %d | %d | %d | %.1f | %d | %d | %d | %.3f |",
			r.Task, r.Model, parity, chir, cs, r.N,
			r.Count, r.Failed, r.Unsolvable,
			r.MinRounds, r.MaxRounds, r.MeanRounds,
			r.P50Rounds, r.P90Rounds, r.P99Rounds, r.BoundRatio)
		if cache {
			fmt.Fprintf(&b, " %d | %d | %d | %d | %d |", r.CacheMisses, r.CacheHits, r.CacheDedups, r.CacheDisk, r.CachePeer)
		}
		b.WriteString("\n")
	}
	return b.String()
}
