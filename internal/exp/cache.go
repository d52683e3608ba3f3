package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"anongeo/internal/durable"
)

// SchemaVersion is mixed into every cache key. Bump it whenever the
// meaning of a config or result changes — a new simulator behavior, a
// renamed metric, a different default — so stale entries become silent
// misses instead of wrong answers. v4: entries carry a CRC-32 integrity
// footer and are fsynced on write. v5: the cache also stores internal/lbs
// cells (Config → Result), whose configs could otherwise collide with
// older encodings.
const SchemaVersion = 5

// DefaultCacheDir is the conventional on-disk location tools use for
// the result cache (git-ignored).
const DefaultCacheDir = ".expcache"

// ErrCorrupt marks a cache entry that failed its integrity check — a
// torn write, a flipped bit, or a wrong-format file. Callers see it
// wrapped in Get's error; the entry itself has already been quarantined
// and will read as a miss from then on.
var ErrCorrupt = errors.New("exp: corrupt cache entry")

// corruptDirName is the quarantine subdirectory under the cache root.
// Entries that fail validation are moved (not deleted) there so a
// corruption burst stays diagnosable after the fact.
const corruptDirName = "corrupt"

// Entry footer: payload bytes followed by "\nexpsum1 %08x\n" where the
// hex field is CRC-32 (IEEE) of the payload. Fixed length, so the
// payload boundary is recoverable without parsing JSON; any truncation
// or bit-flip of payload or footer fails validation.
const (
	footerMagic = "\nexpsum1 "
	footerLen   = len(footerMagic) + 8 + 1
)

// Cache is a content-addressed result store: key = SHA-256 over the
// schema version and the canonical encoding of a config, value = the
// result as JSON plus a CRC-32 footer. Entries live under dir as
// <dir>/<key[:2]>/<key>.json, sharded by the first byte of the key to
// keep directories small.
//
// Durability: writes are atomic and fsynced (temp file + fsync + rename
// + directory fsync via durable.WriteFileAtomic), so a crash — even
// SIGKILL or power loss mid-write — leaves either no entry or a whole
// one. Reads validate the footer checksum; anything torn or bit-rotted
// is quarantined under <dir>/corrupt/ and reported as a miss, never
// served as data.
type Cache struct {
	dir string

	// Grace protects freshly written entries from Prune, shielding
	// concurrent writers from having a just-committed entry evicted out
	// from under them. Zero means the 30s default; negative disables the
	// shield (tests).
	Grace time.Duration

	quarantined atomic.Int64
}

// defaultPruneGrace is the Prune grace window when Cache.Grace is zero.
const defaultPruneGrace = 30 * time.Second

// Open prepares a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir reports the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Quarantined reports how many corrupt entries this handle has moved to
// the quarantine directory — the counter behind the daemon's
// quarantined-entries metric.
func (c *Cache) Quarantined() int64 { return c.quarantined.Load() }

// Key derives the content address of a config: SHA-256 over the schema
// version and the config's canonical encoding. Canonical here is Go's
// deterministic JSON — struct fields in declaration order, map keys
// sorted — so two equal configs always collide and any changed field
// produces a fresh key. Configs that cannot be encoded (function
// fields, channels) return an error; callers should treat those as
// uncacheable rather than fatal.
func (c *Cache) Key(cfg any) (string, error) { return KeyOf(cfg) }

// KeyOf is Cache.Key without a cache handle: the same schema-versioned
// content address, usable wherever a deterministic identity for a
// config-shaped value is needed (the serve daemon derives job IDs from
// it so identical submissions dedupe to the same job).
func KeyOf(cfg any) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("exp: cache key: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "exp-schema-v%d\n", SchemaVersion)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Get loads the entry for key into out. The boolean reports a hit; a
// missing entry is (false, nil). An entry that fails its integrity
// check is quarantined and returned as (false, err) with err wrapping
// ErrCorrupt — a miss the caller may additionally count or log, but
// never data.
func (c *Cache) Get(key string, out any) (bool, error) {
	p := c.path(key)
	b, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	payload, ok := splitFooter(b)
	if !ok {
		c.quarantine(p)
		return false, fmt.Errorf("%w: %s: bad or missing checksum footer", ErrCorrupt, key)
	}
	if err := json.Unmarshal(payload, out); err != nil {
		// Checksum passed but the JSON does not decode into the caller's
		// type: a schema drift the version bump should have caught.
		// Quarantine rather than trust it.
		c.quarantine(p)
		return false, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	return true, nil
}

// splitFooter validates b's integrity footer and returns the payload.
func splitFooter(b []byte) ([]byte, bool) {
	if len(b) < footerLen {
		return nil, false
	}
	payload, foot := b[:len(b)-footerLen], b[len(b)-footerLen:]
	if string(foot[:len(footerMagic)]) != footerMagic || foot[footerLen-1] != '\n' {
		return nil, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(foot[len(footerMagic):footerLen-1]), "%08x", &sum); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, false
	}
	return payload, true
}

// quarantine moves a failed entry under <dir>/corrupt/ (falling back to
// deletion if the move fails) so it reads as a miss from now on while
// staying available for a post-mortem. Best-effort by design: the read
// path must not fail because quarantine did.
func (c *Cache) quarantine(path string) {
	qdir := filepath.Join(c.dir, corruptDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, filepath.Join(qdir, filepath.Base(path))) != nil {
		_ = os.Remove(path)
	}
	c.quarantined.Add(1)
}

// Put stores v under key durably: payload + CRC footer, written
// atomically and fsynced (file and directory). A concurrent or crashed
// writer can therefore never leave a partial entry where Get would find
// it.
func (c *Cache) Put(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("exp: cache encode: %w", err)
	}
	p := c.path(key)
	shard := filepath.Dir(p)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	buf := make([]byte, 0, len(payload)+footerLen)
	buf = append(buf, payload...)
	buf = append(buf, fmt.Sprintf("%s%08x\n", footerMagic, crc32.ChecksumIEEE(payload))...)
	return durable.WriteFileAtomic(p, buf)
}

// Len counts stored entries, for tests and diagnostics. Quarantined
// entries are not stored entries and are excluded.
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			if d.Name() == corruptDirName {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// Prune evicts stale cache entries: everything whose file modification
// time is older than maxAge, and — when the survivors still exceed
// maxEntries — the oldest survivors beyond that bound. A zero (or
// negative) limit disables that dimension, so Prune(0, 0) is a no-op.
// It returns how many entries were removed.
//
// Prune is safe against concurrent readers and writers: an entry that
// disappears or is rewritten mid-walk is skipped (each candidate is
// re-stated immediately before removal), a concurrent Get of a pruned
// key is an ordinary miss, and no entry younger than the grace window
// (Cache.Grace, default 30s) is ever removed — so a writer's
// just-committed result cannot be evicted before the writer's own run
// finishes reading it. Quarantined entries age out under maxAge too.
func (c *Cache) Prune(maxEntries int, maxAge time.Duration) (int, error) {
	if maxEntries <= 0 && maxAge <= 0 {
		return 0, nil
	}
	grace := c.Grace
	if grace == 0 {
		grace = defaultPruneGrace
	}
	type entry struct {
		path string
		mod  time.Time
	}
	var entries, corrupt []entry
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // raced a concurrent prune/quarantine; skip
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent rewrite; skip
		}
		e := entry{path: path, mod: info.ModTime()}
		if filepath.Base(filepath.Dir(path)) == corruptDirName {
			corrupt = append(corrupt, e)
		} else if filepath.Ext(path) == ".json" {
			entries = append(entries, e)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("exp: prune cache: %w", err)
	}

	now := time.Now()
	pruned := 0
	// remove deletes e unless a re-stat shows it vanished, was rewritten
	// since the walk, or is inside the grace window.
	remove := func(e entry) {
		st, err := os.Stat(e.path)
		if err != nil || !st.ModTime().Equal(e.mod) {
			return // gone, or rewritten by a concurrent Put — keep the new one
		}
		if grace > 0 && now.Sub(st.ModTime()) < grace {
			return
		}
		if os.Remove(e.path) == nil {
			pruned++
		}
	}
	if maxAge > 0 {
		cutoff := now.Add(-maxAge)
		kept := entries[:0]
		for _, e := range entries {
			if e.mod.Before(cutoff) {
				remove(e)
			} else {
				kept = append(kept, e)
			}
		}
		entries = kept
		for _, e := range corrupt {
			if e.mod.Before(cutoff) {
				remove(e)
			}
		}
	}
	if maxEntries > 0 && len(entries) > maxEntries {
		sort.Slice(entries, func(i, j int) bool { return entries[i].mod.Before(entries[j].mod) })
		for _, e := range entries[:len(entries)-maxEntries] {
			remove(e)
		}
	}
	// Empty shard directories stay: there are at most 256, and removing
	// one races a concurrent Put that has just created it.
	return pruned, nil
}

// path maps a key to its sharded on-disk location.
func (c *Cache) path(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(c.dir, shard, key+".json")
}
