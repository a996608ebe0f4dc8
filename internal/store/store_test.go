package store

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
)

func put(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func wantGet(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%q): miss, want %d bytes", key, len(val))
	}
	if string(got) != string(val) {
		t.Fatalf("Get(%q) = %q, want %q", key, got, val)
	}
}

func testKey(i int) string { return fmt.Sprintf("key-%04d|task=test|cs=false|seed=%d", i, i) }
func testVal(i int) []byte { return []byte(fmt.Sprintf(`{"i":%d,"body":"%04d"}`, i, i)) }

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		put(t, s, testKey(i), testVal(i))
	}
	for i := 0; i < n; i++ {
		wantGet(t, s, testKey(i), testVal(i))
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	st := s.Stats()
	if st.IndexEntries != n || st.Puts != n || st.Hits != n || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d entries/puts/hits, 1 miss", st, n)
	}
	if st.Segments < 2 {
		t.Fatalf("segments = %d, want rotation with segmentBytes=256", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after-close", []byte("x")); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	// Warm start: the index is rebuilt from the segments alone.
	s2, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		wantGet(t, s2, testKey(i), testVal(i))
	}
	put(t, s2, testKey(n), testVal(n)) // append after recovery succeeds
	wantGet(t, s2, testKey(n), testVal(n))
}

func TestRePutIsNoOp(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, testKey(1), testVal(1))
	before := s.Stats()
	put(t, s, testKey(1), testVal(1)) // content-addressed: same key, same bytes
	after := s.Stats()
	if after.TotalBytes != before.TotalBytes || after.Puts != before.Puts {
		t.Fatalf("re-put grew the store: before %+v after %+v", before, after)
	}
	// A value of another length is not the resident one: it supersedes it.
	longer := append(testVal(1), '!')
	put(t, s, testKey(1), longer)
	wantGet(t, s, testKey(1), longer)
}

// TestRePutSameLengthSupersedes: a resident record of another store format
// can be exactly as long as the fresh one (a [3,…] record against a [2,…]
// one).  The re-put that follows its failed decode must replace it, on
// this handle and across a reopen, or the key recomputes on every lookup.
func TestRePutSameLengthSupersedes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	foreign, fresh := []byte(`[3,12,5,8,0,0,0,4,8]`), []byte(`[2,12,5,8,0,0,0,4,8]`)
	put(t, s, key, foreign)
	before := s.Stats()
	put(t, s, key, fresh)
	if after := s.Stats(); after.Puts != before.Puts+1 || after.TotalBytes <= before.TotalBytes {
		t.Fatalf("same-length re-put did not append: before %+v after %+v", before, after)
	}
	wantGet(t, s, key, fresh)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wantGet(t, s, key, fresh)
}

// TestCorruptRecordHeals flips one value byte on disk: Get must report a
// miss, and the recompute's Put of the same value must be served afterwards
// rather than being taken for a re-put of the corrupt record.  Several
// readers race on the corrupt record, so a reader that saw it must not drop
// the fresh copy another reader's Put already indexed.
func TestCorruptRecordHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key, val := testKey(1), testVal(1)
	put(t, s, key, val)
	f, err := os.OpenFile(segPath(dir, 1), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(segHeaderLen) + recordSize(len(key), len(val)) - 1
	if _, err := f.WriteAt([]byte{val[len(val)-1] ^ 0x01}, last); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ok := s.Get(key)
			if ok && string(got) != string(val) {
				t.Errorf("Get served corrupt bytes %q", got)
				return
			}
			if !ok {
				if err := s.Put(key, val); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
			if got, ok = s.Get(key); !ok || string(got) != string(val) {
				t.Errorf("Get after the recompute = %v %q, want %q", ok, got, val)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Misses == 0 {
		t.Fatalf("no reader saw the corrupt record: %+v", st)
	}
}

// failingWriterAt tears the write that would push the cumulative byte count
// past budget: it persists only the prefix that fits and returns an error,
// which is exactly what a crash mid-append leaves on disk.
type failingWriterAt struct {
	f      io.WriterAt
	mu     sync.Mutex
	budget int64
	failed bool
}

func (w *failingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.budget >= int64(len(p)) {
		w.budget -= int64(len(p))
		return w.f.WriteAt(p, off)
	}
	w.failed = true
	n := int(w.budget)
	w.budget = 0
	if n > 0 {
		w.f.WriteAt(p[:n], off)
	}
	return n, fmt.Errorf("injected torn write (%d of %d bytes)", n, len(p))
}

// TestCrashRecoveryProperty is the crash-mid-append property test: append
// records through a writer that tears at a randomized byte offset, abandon
// the store without closing it (the crash), reopen, and require that the
// index holds exactly the fully-appended records and that the store accepts
// new appends.  200 trials sweep the tear across header, key and value
// positions of different records.
func TestCrashRecoveryProperty(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 1))
			dir := t.TempDir()
			// Budget at least the opening magic write; tears then land
			// anywhere in the first ~2KiB of appended records.
			fw := &failingWriterAt{budget: int64(segHeaderLen) + rng.Int63n(2048)}
			var inner io.WriterAt
			s, err := Open(dir, Options{
				segmentBytes: 512,
				wrapWriter: func(w io.WriterAt) io.WriterAt {
					inner = w
					fw.f = w
					return fw
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = inner
			survivors := make(map[string]string)
			for i := 0; ; i++ {
				key, val := testKey(i), testVal(i)
				if err := s.Put(key, val); err != nil {
					break // the crash point
				}
				survivors[key] = string(val)
				if i > 4096 {
					t.Fatal("fault injector never fired")
				}
			}
			if !fw.failed {
				t.Fatal("Put failed without the injector firing")
			}
			s.closeAll() // release fds; deliberately NOT Close (no sync, no cleanup)

			s2, err := Open(dir, Options{segmentBytes: 512})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer s2.Close()
			if got := s2.Len(); got != len(survivors) {
				t.Fatalf("recovered %d records, want %d complete ones", got, len(survivors))
			}
			for key, val := range survivors {
				wantGet(t, s2, key, []byte(val))
			}
			put(t, s2, "post-crash", []byte("append-after-recovery"))
			wantGet(t, s2, "post-crash", []byte("append-after-recovery"))
		})
	}
}

func TestEvictionOldestAccessFirst(t *testing.T) {
	s, err := Open(t.TempDir(), Options{segmentBytes: 256, MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 100
	for i := 0; i < n; i++ {
		put(t, s, testKey(i), testVal(i))
	}
	st := s.Stats()
	if st.EvictedSegments == 0 {
		t.Fatalf("no segments evicted under MaxBytes=1024: %+v", st)
	}
	if st.TotalBytes > 1024 {
		t.Fatalf("TotalBytes %d above the cap", st.TotalBytes)
	}
	if st.IndexEntries == 0 || st.IndexEntries == n {
		t.Fatalf("IndexEntries = %d, want partial survival", st.IndexEntries)
	}
	// The newest record is in the active segment and must have survived;
	// the oldest was in the oldest-access segment and must be gone.
	wantGet(t, s, testKey(n-1), testVal(n-1))
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("oldest record survived eviction")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{segmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := g*50 + i
				if err := s.Put(testKey(k), testVal(k)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, ok := s.Get(testKey(k))
				if !ok || string(got) != string(testVal(k)) {
					t.Errorf("Get(%d) after Put: ok=%v got=%q", k, ok, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Len(); got != 400 {
		t.Fatalf("Len = %d, want 400", got)
	}
}
