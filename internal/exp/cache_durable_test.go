package exp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tornRes is a result shape with enough structure that a corrupted
// entry decoding "successfully" by luck would still be caught by the
// deep-equal assertions.
type tornRes struct {
	Score float64
	Label string
	Hist  []int
}

func mustKey(t *testing.T, c *Cache, cfg any) string {
	t.Helper()
	k, err := c.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheEntryHasChecksumFooter(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, c, fakeCfg{Seed: 9, Nodes: 3})
	want := tornRes{Score: 1.5, Label: "x", Hist: []int{1, 2, 3}}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if payload, ok := splitFooter(raw); !ok {
		t.Fatal("stored entry has no valid checksum footer")
	} else if !bytes.Contains(payload, []byte(`"Score"`)) {
		t.Fatalf("payload does not look like the stored JSON: %q", payload)
	}
	var got tornRes
	hit, err := c.Get(key, &got)
	if err != nil || !hit || !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip: hit=%v err=%v got=%+v want=%+v", hit, err, got, want)
	}
}

func TestCacheCorruptEntryQuarantined(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, c, fakeCfg{Seed: 1, Nodes: 10})
	if err := c.Put(key, tornRes{Score: 2}); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: checksum must catch it.
	p := c.path(key)
	raw, _ := os.ReadFile(p)
	raw[2] ^= 0x04
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var got tornRes
	hit, err := c.Get(key, &got)
	if hit {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get err = %v, want ErrCorrupt", err)
	}
	if n := c.Quarantined(); n != 1 {
		t.Fatalf("Quarantined() = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), corruptDirName, filepath.Base(p))); err != nil {
		t.Fatalf("corrupt entry not moved to quarantine: %v", err)
	}
	// Once quarantined, the key reads as a clean miss and can be
	// rewritten.
	hit, err = c.Get(key, &got)
	if hit || err != nil {
		t.Fatalf("post-quarantine Get = %v, %v; want clean miss", hit, err)
	}
	if err := c.Put(key, tornRes{Score: 2}); err != nil {
		t.Fatal(err)
	}
	hit, err = c.Get(key, &got)
	if !hit || err != nil || got.Score != 2 {
		t.Fatalf("rewrite after quarantine: hit=%v err=%v got=%+v", hit, err, got)
	}
	// Quarantined entries do not count as stored entries.
	if n, _ := c.Len(); n != 1 {
		t.Fatalf("Len() = %d, want 1", n)
	}
}

func TestCacheTruncatedEntryIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, c, fakeCfg{Seed: 2, Nodes: 4})
	if err := c.Put(key, tornRes{Score: 3, Hist: []int{9, 8}}); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(c.path(key))
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - footerLen, len(full) - 1} {
		if err := c.Put(key, tornRes{Score: 3, Hist: []int{9, 8}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got tornRes
		hit, err := c.Get(key, &got)
		if hit {
			t.Fatalf("truncation at %d served as a hit", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestPruneGraceProtectsFreshEntries(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(mustKey(t, c, map[string]int{"cell": i}), i); err != nil {
			t.Fatal(err)
		}
	}
	// Entries were written milliseconds ago: maxAge says evict
	// everything, the grace window (default 30s) says hands off.
	n, err := c.Prune(0, time.Nanosecond)
	if err != nil || n != 0 {
		t.Fatalf("Prune inside grace = %d, %v; want 0, nil", n, err)
	}
	if got, _ := c.Len(); got != 4 {
		t.Fatalf("entries after graced prune = %d, want 4", got)
	}
	// Count-based eviction respects the same shield.
	if n, _ := c.Prune(1, 0); n != 0 {
		t.Fatalf("count prune inside grace removed %d entries", n)
	}
	// Disabling the grace (tests only) lets the same prune proceed.
	c.Grace = -1
	time.Sleep(5 * time.Millisecond) // ensure mod times are strictly past the cutoff
	n, err = c.Prune(0, time.Nanosecond)
	if err != nil || n != 4 {
		t.Fatalf("Prune with grace disabled = %d, %v; want 4, nil", n, err)
	}
}

func TestPruneConcurrentWithWriters(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key, err := c.Key(map[string]int{"writer": w, "i": i % 16})
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Put(key, i); err != nil {
					t.Errorf("Put under prune: %v", err)
					return
				}
				var v int
				if _, err := c.Get(key, &v); err != nil {
					t.Errorf("Get under prune: %v", err)
					return
				}
				writes.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	// Hammer Prune against the writers with an aggressive policy; the
	// grace window must keep live entries safe and the walk must
	// tolerate every rename/remove race without erroring. Each writer is
	// guaranteed at least one committed entry before its first stop
	// check, and the prune loop only starts once writes are flowing.
	for writes.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Prune(1, time.Nanosecond); err != nil {
			t.Fatalf("Prune raced a writer into an error: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	// Everything the writers committed within the grace window must
	// still be readable.
	if n, _ := c.Len(); n == 0 {
		t.Fatal("prune evicted entries inside the grace window")
	}
}

// FuzzCacheTornWrite is the torn-write fuzz for cache entries: any
// truncation and/or bit-flip of a stored entry must read back as a miss
// (with the entry quarantined), never as corrupt data and never as a
// panic. The identity mutation must still hit with the exact original
// value.
func FuzzCacheTornWrite(f *testing.F) {
	f.Add(uint16(0), byte(0))
	f.Add(uint16(3), byte(0x01))
	f.Add(uint16(40), byte(0x80))
	f.Add(uint16(9999), byte(0xFF))
	f.Fuzz(func(t *testing.T, pos uint16, mask byte) {
		c, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key, err := c.Key(fakeCfg{Seed: 7, Nodes: 42})
		if err != nil {
			t.Fatal(err)
		}
		want := tornRes{Score: 0.125, Label: "fuzz", Hist: []int{3, 1, 4, 1, 5}}
		if err := c.Put(key, want); err != nil {
			t.Fatal(err)
		}
		p := c.path(key)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}

		// Mutate: flip bits at pos (when mask != 0 and in range), then
		// truncate at pos when pos lands inside the file.
		identity := true
		if mask != 0 && int(pos) < len(b) {
			b[pos] ^= mask
			identity = false
		}
		if int(pos) < len(b) && mask == 0 {
			b = b[:pos]
			identity = false
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}

		var got tornRes
		hit, err := c.Get(key, &got)
		if identity {
			if !hit || err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("identity mutation: hit=%v err=%v got=%+v", hit, err, got)
			}
			return
		}
		if hit {
			// A hit after mutation is only acceptable when the decoded
			// value is exactly the original (e.g. a flip confined to
			// JSON whitespace cannot happen here, but be strict anyway).
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mutated entry served as a hit with corrupt data: %+v", got)
			}
			return
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mutated entry: err = %v, want nil or ErrCorrupt", err)
		}
		if err != nil {
			// Quarantined: the key must now be a clean, rewritable miss.
			if hit, err := c.Get(key, &got); hit || err != nil {
				t.Fatalf("post-quarantine Get = %v, %v; want clean miss", hit, err)
			}
			if err := c.Put(key, want); err != nil {
				t.Fatalf("rewrite after quarantine: %v", err)
			}
			if hit, err := c.Get(key, &got); !hit || err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("re-read after rewrite: hit=%v err=%v got=%+v", hit, err, got)
			}
		}
	})
}

// corruptResult is used by the orchestrator-level corruption test.
func TestOrchestratorEmitsCacheCorruptEvent(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fakeCfg{Seed: 1, Nodes: 10}
	key := mustKey(t, c, cfg)
	if err := c.Put(key, fakeRes{Score: 1}); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(c.path(key))
	raw[1] ^= 0x10
	os.WriteFile(c.path(key), raw, 0o644)

	var mu sync.Mutex
	var corruptEvents []Event
	hook := hookFunc(func(ev Event) {
		if ev.Type == EventCacheCorrupt {
			mu.Lock()
			corruptEvents = append(corruptEvents, ev)
			mu.Unlock()
		}
	})
	o := &Orchestrator[fakeCfg, fakeRes]{
		RunCtx: withCtx(fakeRun),
		Cache:  c,
		Hooks:  []Hook{hook},
	}
	out, err := o.Execute([]Cell[fakeCfg]{{Label: "x", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if len(corruptEvents) != 1 || corruptEvents[0].Key != key {
		t.Fatalf("cache-corrupt events = %+v, want exactly one for key %s", corruptEvents, key)
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", c.Quarantined())
	}
}
