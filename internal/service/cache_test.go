package service

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// entryOfSize builds an entry whose volume payload is nx³ voxels.
func entryOfSize(nx int) *Entry {
	return &Entry{Volume: volume.New(nx, nx, nx, volume.IMajor)}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	// Budget fits two 16³ volumes (16 KiB each + overhead) but not three.
	c := NewCache(2*(16*16*16*4) + 2048)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", entryOfSize(16))
	c.Put("b", entryOfSize(16))
	if _, ok := c.Get("a"); !ok { // promotes a
		t.Fatal("miss on a")
	}
	c.Put("c", entryOfSize(16)) // over budget: evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite promotion")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("byte accounting out of range: %+v", st)
	}
}

// One large entry must evict many small ones — the scenario a count-based
// cap gets wrong in both directions.
func TestCacheEvictsByBytesNotCount(t *testing.T) {
	small := entryOfSize(8) // 2 KiB payload
	budget := 10*entrySize(small) + entrySize(entryOfSize(16))
	c := NewCache(budget)
	for _, k := range []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"} {
		c.Put(k, entryOfSize(8))
	}
	if st := c.Stats(); st.Entries != 10 {
		t.Fatalf("expected all 10 small entries resident, got %+v", st)
	}
	// A 16³ entry fits the remaining headroom without evicting anything.
	c.Put("big", entryOfSize(16))
	if st := c.Stats(); st.Entries != 11 {
		t.Fatalf("big entry should coexist: %+v", st)
	}
	// A 20³ entry (~32 KiB, within budget but larger than the remaining
	// headroom) must displace older entries, count be damned.
	c.Put("huge", entryOfSize(20))
	st := c.Stats()
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("huge entry not cached")
	}
	if st.Entries >= 11 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget exceeded: %+v", st)
	}
}

// An entry larger than the whole budget is not cached, and replacing an
// existing key with such an entry removes the stale value.
func TestCacheRejectsOversizedEntry(t *testing.T) {
	small := entryOfSize(8)
	c := NewCache(entrySize(small) + 1)
	c.Put("a", small)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("small entry not cached")
	}
	c.Put("a", entryOfSize(32)) // oversized replacement
	if _, ok := c.Get("a"); ok {
		t.Fatal("oversized replacement left a stale entry readable")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after oversized replace = %+v", st)
	}
}

// Replacing an entry in place must adjust the byte account.
func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put("a", entryOfSize(8))
	before := c.Stats().Bytes
	c.Put("a", entryOfSize(16))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("replace duplicated the entry: %+v", st)
	}
	if st.Bytes <= before {
		t.Fatalf("bytes not adjusted on replace: %d -> %d", before, st.Bytes)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", &Entry{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// Through the Manager, the cache budget bounds every result byte retained:
// with room for one 32³ entry, fifteen distinct 32³ jobs leave the cache
// within its budget and nothing on the PFS but the staged datasets. The
// records are all kept, and none holds a volume or an entry: at most one
// job still answers Manager.Volume, and every other one answers /slice with
// terminal. An evicted entry is dropped, not written anywhere else.
func TestManagerCacheBudgetBoundsRetainedResults(t *testing.T) {
	const jobs = 15
	m, err := OpenManager(Options{Workers: 1, MaxJobs: jobs,
		CacheBytes: entrySize(entryOfSize(32))})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	var ids []string
	for _, ph := range []string{"shepplogan", "sphere", "industrial"} {
		for _, w := range []string{"ram-lak", "shepp-logan", "cosine", "hamming", "hann"} {
			v, err := m.Submit(Spec{Phantom: ph, NX: 32, R: 1, C: 1, Window: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
				t.Fatalf("%s/%s: %s (%s)", ph, w, got.State, got.Error)
			}
			ids = append(ids, v.ID)
		}
	}
	if st := m.cache.Stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("cache holds %d B over its %d B budget", st.Bytes, st.MaxBytes)
	}
	var stray []string
	for _, path := range m.Store().List("") {
		if !strings.HasPrefix(path, "ds/") {
			stray = append(stray, path)
		}
	}
	if len(stray) > 0 {
		t.Fatalf("%d PFS objects outside ds/, first %s", len(stray), stray[0])
	}
	srv := NewServer(m)
	readable := 0
	for _, id := range ids {
		j, ok := m.job(id)
		if !ok {
			t.Fatalf("record %s pruned", id)
		}
		requireNoBytes(t, j)
		if _, err := m.Volume(id); err == nil {
			readable++
			continue
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/slice/3", nil))
		if e := decodeAPIError(t, rec.Result()); e.Code != api.CodeTerminal {
			t.Errorf("%s: /slice of an evicted result = %d %s, want terminal", id, rec.Code, e.Code)
		}
	}
	if readable > 1 {
		t.Errorf("%d of %d settled jobs still answer Volume through a one-entry cache", readable, jobs)
	}
}

// requireNoBytes fails when the settled record j still references a volume
// or a cache entry: a settled job holds its keys, and the cache its bytes.
func requireNoBytes(t *testing.T, j *Job) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	rv := reflect.ValueOf(j).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Type() {
		case reflect.TypeOf((*Entry)(nil)), reflect.TypeOf((*volume.Volume)(nil)):
			if !f.IsNil() {
				t.Errorf("settled job %s holds %s in field %s", j.ID, f.Type(), rv.Type().Field(i).Name)
			}
		}
	}
}
