// Package store is the disk-backed, content-addressed result store under the
// memo cache: scenario outcomes keyed by their versioned canonical SHA-256
// keys (internal/canon + the campaign key suffix) survive process restarts,
// so a restarted daemon answers its first symmetric sweep from disk instead
// of recomputing the universe, and a fleet of daemons can serve each other's
// stores over HTTP (see Peers and ringd's GET /v1/cache/<key>).
//
// The design is a small bitcask: append-only segment files of length-prefixed
// records with a per-record CRC32C, and an in-memory index rebuilt by
// scanning the segments on Open.  Three invariants carry the package:
//
//   - Crash-mid-append never poisons the store.  A record is valid only if
//     its checksum matches; the recovery scan stops at the first torn or
//     corrupt record and truncates the tail away, so the store reopens with
//     exactly the complete records that made it to disk and the next append
//     continues from there.
//   - Values are immutable per key version.  A key is a content address
//     (the canonical configuration fingerprint plus the task inputs), so a
//     re-put of a resident key with a value of the same length is a no-op;
//     any other re-put appends a new record that supersedes the old one.
//   - Nothing nondeterministic reaches the record bytes.  Keys and values
//     are produced by the deterministic campaign/canon layers; the store
//     adds framing and checksums only.  Recency for eviction is a logical
//     access counter, not wall clock (the determinism analyzer holds this
//     package to the same clock discipline as the artefact writers).
//
// Capacity is managed at segment granularity: when Options.MaxBytes is
// exceeded, whole sealed segments are evicted oldest-access-first (their
// keys drop from the index).  Eviction is also the only thing that reclaims
// the bytes of a superseded record.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"ringsym/internal/obs"
)

// Process-wide service totals, registered in the obs metric registry (the
// pattern internal/memo set): per-instance Stats() answers "how is this
// store doing" while the Prometheus exposition sees fleet-facing totals.
var (
	totHits      = obs.NewCounter("ringsym_store_hits_total", "Store lookups served from a segment, across all stores.")
	totMisses    = obs.NewCounter("ringsym_store_misses_total", "Store lookups that found no record, across all stores.")
	totPuts      = obs.NewCounter("ringsym_store_puts_total", "Records appended, across all stores.")
	totEvictSegs = obs.NewCounter("ringsym_store_evicted_segments_total", "Sealed segments dropped by the size cap, across all stores.")
	totEvictRecs = obs.NewCounter("ringsym_store_evicted_records_total", "Live records lost to segment eviction, across all stores.")
)

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total on-disk size; 0 means unbounded.  The cap is
	// enforced by evicting whole sealed segments, oldest logical access
	// first, so the floor is one active segment (the cap cannot evict the
	// segment being appended to).
	MaxBytes int64

	// segmentBytes is the size at which the active segment is sealed and a
	// fresh one started; 0 selects defaultSegmentSize.  Tests shrink it to
	// exercise rotation and eviction.
	segmentBytes int64
	// wrapWriter, when set, interposes on the active segment's writer; the
	// crash-recovery property test injects torn appends through it.
	wrapWriter func(io.WriterAt) io.WriterAt
}

const defaultSegmentSize = 4 << 20

// ref locates the current record for a key.
type ref struct {
	seg uint64
	off int64 // record header offset within the segment
	kl  int
	vl  int
}

// segment is one on-disk file.
type segment struct {
	id     uint64
	f      *os.File
	w      io.WriterAt // f, possibly wrapped for fault injection
	size   int64       // valid bytes (header + complete records)
	access atomic.Int64
}

// Store is a disk-backed key→value store.  All methods are safe for
// concurrent use.  Construct with Open; Close releases the directory.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	segs   map[uint64]*segment
	order  []uint64 // ascending ids; last is the active segment
	idx    map[string]ref
	nextID uint64
	closed bool
	buf    []byte // record scratch, guarded by mu (appends are serialized)

	clock atomic.Int64 // logical access clock for eviction recency

	hits, misses, puts   atomic.Uint64
	evictSegs, evictRecs atomic.Uint64
}

// Stats is a point-in-time snapshot of a store's state and service counters.
type Stats struct {
	// Segments is the number of on-disk segment files (the active one
	// included); IndexEntries the number of distinct keys resident.
	Segments     int `json:"segments"`
	IndexEntries int `json:"index_entries"`
	// TotalBytes is the on-disk footprint including segment headers, the
	// quantity Options.MaxBytes caps.
	TotalBytes int64 `json:"total_bytes"`
	// Service counters since Open.
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Puts            uint64 `json:"puts"`
	EvictedSegments uint64 `json:"evicted_segments"`
	EvictedRecords  uint64 `json:"evicted_records"`
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Open opens (or creates) the store rooted at dir, rebuilding the in-memory
// index by scanning every segment in id order: later segments win duplicate
// keys, torn or corrupt tails are truncated away, and the highest segment is
// reused as the active one when it has room.  Files in dir that are not
// segment files are ignored.
func Open(dir string, opts Options) (*Store, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		segs: make(map[uint64]*segment),
		idx:  make(map[string]ref),
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, id := range ids {
		if err := s.openSegment(id); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	if len(s.order) > 0 {
		s.nextID = s.order[len(s.order)-1] + 1
	} else {
		s.nextID = 1
	}
	// Ensure an active segment with room; a full (or absent) tail rotates.
	if len(s.order) == 0 || s.activeLocked().size >= opts.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	return s, nil
}

// openSegment scans one existing segment into the index, truncating any torn
// tail in place so the next append lands on a clean boundary.
func (s *Store) openSegment(id uint64) error {
	f, err := os.OpenFile(segPath(s.dir, id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, f: f, w: s.wrap(f)}
	var recs []scannedRecord
	validLen, _ := scanSegment(f, fi.Size(), func(r scannedRecord) { recs = append(recs, r) })
	if validLen < int64(segHeaderLen) {
		// Headerless or foreign-content file under a segment name: reset it
		// to an empty segment rather than guessing at its bytes.
		validLen = 0
	}
	if validLen < fi.Size() {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn tail of %s: %w", segName(id), err)
		}
	}
	if validLen == 0 {
		if _, err := seg.w.WriteAt([]byte(segMagic), 0); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		validLen = int64(segHeaderLen)
	}
	seg.size = validLen
	s.segs[id] = seg
	s.order = append(s.order, id)
	// Replay in file order: within a segment later records supersede
	// earlier ones, and segments are opened in ascending id order, so the
	// last write for a key always wins, as it did before the restart.
	for _, r := range recs {
		s.idx[r.key] = ref{seg: id, off: r.off, kl: r.kl, vl: r.vl}
	}
	return nil
}

// wrap applies the fault-injection hook to a segment writer.
func (s *Store) wrap(f *os.File) io.WriterAt {
	if s.opts.wrapWriter != nil {
		return s.opts.wrapWriter(f)
	}
	return f
}

func (s *Store) activeLocked() *segment {
	return s.segs[s.order[len(s.order)-1]]
}

// rotateLocked seals the active segment (fsync) and starts a fresh one.
func (s *Store) rotateLocked() error {
	if len(s.order) > 0 {
		if err := s.activeLocked().f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	id := s.nextID
	f, err := os.OpenFile(segPath(s.dir, id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, f: f, w: s.wrap(f)}
	if _, err := seg.w.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		os.Remove(segPath(s.dir, id))
		return fmt.Errorf("store: %w", err)
	}
	seg.size = int64(segHeaderLen)
	seg.access.Store(s.clock.Add(1))
	s.nextID++
	s.segs[id] = seg
	s.order = append(s.order, id)
	return nil
}

// Get returns the stored value for key.  The record's checksum is
// re-verified on every read — a flipped bit on disk surfaces as a miss (and
// a recompute), never as a corrupt outcome served to a client.  A record
// that fails to read or verify also leaves the index, so the recompute's Put
// appends a fresh copy instead of being a no-op against the bad one.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false
	}
	r, ok := s.idx[key]
	if !ok {
		s.mu.RUnlock()
		s.misses.Add(1)
		totMisses.Note(obs.StoreMiss)
		return nil, false
	}
	seg := s.segs[r.seg]
	buf := make([]byte, recordSize(r.kl, r.vl))
	_, err := seg.f.ReadAt(buf, r.off)
	seg.access.Store(s.clock.Add(1))
	s.mu.RUnlock()
	hdr := recHeaderLen + r.kl
	if err != nil || !bytes.Equal(appendRecord(nil, key, buf[hdr:])[:hdr], buf[:hdr]) {
		// Short read, or a CRC, key or framing mismatch.  Drop the entry
		// unless a concurrent Put has already replaced it.
		s.mu.Lock()
		if s.idx[key] == r {
			delete(s.idx, key)
		}
		s.mu.Unlock()
		s.misses.Add(1)
		totMisses.Note(obs.StoreMiss)
		return nil, false
	}
	s.hits.Add(1)
	totHits.Note(obs.StoreHit)
	return buf[hdr:], true
}

// Put appends key→val to the active segment and points the index at it.  A
// failed append (torn write, full disk) leaves the segment's valid length
// unchanged — the partial bytes sit beyond it and are overwritten by the
// next append or truncated by the next Open — and returns the error.
func (s *Store) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d outside (0, %d]", len(key), maxKeyLen)
	}
	if len(val) > maxValLen {
		return fmt.Errorf("store: value length %d above %d", len(val), maxValLen)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// A re-put of a value as long as the resident one is a no-op: the key
	// is a content address, and warm sweeps re-offer every outcome they
	// serve.  Any other re-put appends and supersedes the old record.
	if r, ok := s.idx[key]; ok && r.vl == len(val) {
		s.mu.Unlock()
		return nil
	}
	// Rotate BEFORE appending, never after: a Put that returns nil must
	// mean the record's bytes are fully on disk, and a Put that errors must
	// mean they are not — rotation failure after a durable append would
	// break that contract (the crash-recovery property test holds it).
	seg := s.activeLocked()
	if seg.size >= s.opts.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
		seg = s.activeLocked()
	}
	s.buf = appendRecord(s.buf, key, val)
	if _, err := seg.w.WriteAt(s.buf, seg.size); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: append: %w", err)
	}
	off := seg.size
	seg.size += int64(len(s.buf))
	seg.access.Store(s.clock.Add(1))
	s.idx[key] = ref{seg: seg.id, off: off, kl: len(key), vl: len(val)}
	s.evictLocked()
	s.mu.Unlock()
	s.puts.Add(1)
	totPuts.Add(1)
	return nil
}

func (s *Store) totalLocked() int64 {
	var t int64
	for _, id := range s.order {
		t += s.segs[id].size
	}
	return t
}

// evictLocked drops sealed segments, oldest logical access first, until the
// store fits Options.MaxBytes.  The active segment is never evicted, so the
// cap's floor is one segment.  Evicted keys leave the index; their loss is
// recoverable by recomputation, which is the long-tail trade the cap exists
// to make.
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.totalLocked() > s.opts.MaxBytes && len(s.order) > 1 {
		victim := -1
		for i := 0; i < len(s.order)-1; i++ { // exclude the active tail
			if victim == -1 || s.segs[s.order[i]].access.Load() < s.segs[s.order[victim]].access.Load() {
				victim = i
			}
		}
		if victim == -1 {
			return
		}
		s.dropSegmentLocked(victim)
	}
}

// dropSegmentLocked evicts the segment at position i of s.order from the
// index, the map and (best-effort) the disk.
func (s *Store) dropSegmentLocked(i int) {
	id := s.order[i]
	seg := s.segs[id]
	dropped := 0
	for key, r := range s.idx {
		if r.seg == id {
			delete(s.idx, key)
			dropped++
		}
	}
	seg.f.Close()
	os.Remove(segPath(s.dir, id))
	delete(s.segs, id)
	s.order = append(s.order[:i], s.order[i+1:]...)
	s.evictSegs.Add(1)
	s.evictRecs.Add(uint64(dropped))
	totEvictSegs.Add(1)
	totEvictRecs.Add(uint64(dropped))
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.StoreEvict, Level: obs.LevelInfo})
	}
}

// Len returns the number of distinct keys resident in the index.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// Stats returns a snapshot of the store's state and counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Segments:     len(s.order),
		IndexEntries: len(s.idx),
		TotalBytes:   s.totalLocked(),
	}
	s.mu.RUnlock()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.Puts = s.puts.Load()
	st.EvictedSegments = s.evictSegs.Load()
	st.EvictedRecords = s.evictRecs.Load()
	return st
}

// Close syncs the active segment and releases every file.  Operations after
// Close fail with ErrClosed (Get reports a miss-shaped false).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if len(s.order) > 0 {
		err = s.activeLocked().f.Sync()
	}
	s.closeAll()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// closeAll closes every open segment file (used by Close and failed Opens).
func (s *Store) closeAll() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}
