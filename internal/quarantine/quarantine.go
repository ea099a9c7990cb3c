// Package quarantine is the persistent crash/failure corpus of the
// self-verifying pipeline. Any input that fails diagram verification,
// trips panic containment, or exhausts a search budget is scrubbed of
// literal values and persisted to an on-disk store so it can be
// replayed deterministically (cmd/oracle -replay), loaded as fuzz
// seeds, and tracked across releases.
//
// The store is a flat directory of JSON files, one entry per file:
//
//   - deduped: the filename is derived from the failure stage plus a
//     hash of the entry's logical pattern, so retrying the same failing
//     input a thousand times costs one file;
//   - bounded: when the directory exceeds its byte budget the oldest
//     entries are evicted, never the one just added;
//   - atomic: entries are written to a temp file, fsynced, and renamed
//     into place, so a crash mid-write never leaves a torn entry; Open
//     sweeps temp files orphaned by a crash, and a committed file that
//     somehow ends up torn anyway (pre-fsync power cut, disk fault) is
//     detected on the next Add of the same key and rewritten rather
//     than treated as a duplicate forever.
package quarantine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry is one quarantined input with everything needed to replay it
// deterministically: the scrubbed SQL, the schema name, and the
// fault-plan seed (0 = no injected faults).
type Entry struct {
	// Stage classifies the failure: a VerifyStatus* value from the root
	// package ("mismatch", "ambiguous", "timeout", "error"; older
	// entries may say "budget_exhausted") or "panic" for contained
	// invariant violations.
	Stage string `json:"stage"`
	// Schema is the built-in schema name the query resolves against.
	Schema string `json:"schema"`
	// SQL is the scrubbed query text (see ScrubSQL).
	SQL string `json:"sql"`
	// PatternKey is the diagram's pattern fingerprint when a diagram was
	// built before the failure; it drives dedup. Empty when no diagram
	// exists (the scrubbed SQL stands in).
	PatternKey string `json:"pattern_key,omitempty"`
	// Status is the VerifyStatus recorded at quarantine time.
	Status string `json:"status"`
	// Rung is the degradation-ladder rung that served the response, if
	// any ("" when the request failed outright).
	Rung string `json:"rung,omitempty"`
	// Detail is the human-readable failure reason.
	Detail string `json:"detail,omitempty"`
	// FaultSeed reconstructs the injected fault plan via faults.NewPlan;
	// 0 means the request carried no plan.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Budget is read from entries older servers filed; replay ignores it.
	Budget int `json:"budget,omitempty"`
	// Simplify mirrors the request's simplify option.
	Simplify bool `json:"simplify,omitempty"`
	// Time is when the entry was first quarantined.
	Time time.Time `json:"time"`
}

// Key is the entry's dedup identity and filename stem: the stage plus
// a 16-hex-digit hash of the logical pattern (PatternKey when present,
// scrubbed SQL otherwise — scrubbing already normalizes literals, so
// pattern-equal inputs collide as intended).
func (e *Entry) Key() string {
	pat := e.PatternKey
	if pat == "" {
		pat = e.SQL
	}
	sum := sha256.Sum256([]byte(e.Stage + "\x00" + e.Schema + "\x00" + pat))
	return sanitize(e.Stage) + "-" + hex.EncodeToString(sum[:8])
}

// sanitize keeps filename stems portable.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, s)
}

// ScrubSQL replaces every string literal with a synthetic value before
// an input is persisted, so quarantine files never retain user data.
// The replacement is deterministic and equality-preserving: the n-th
// distinct literal becomes 'sn' everywhere it appears, so predicates
// that compared equal (or differed) before scrubbing still do after —
// the query's logical pattern, and therefore its failure, survives.
func ScrubSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	repl := map[string]string{}
	for i := 0; i < len(sql); {
		if sql[i] != '\'' {
			b.WriteByte(sql[i])
			i++
			continue
		}
		j := i + 1
		for j < len(sql) {
			if sql[j] == '\'' {
				if j+1 < len(sql) && sql[j+1] == '\'' { // doubled-quote escape
					j += 2
					continue
				}
				break
			}
			j++
		}
		if j >= len(sql) { // unterminated literal: keep verbatim
			b.WriteString(sql[i:])
			break
		}
		lit := sql[i : j+1]
		r, ok := repl[lit]
		if !ok {
			r = fmt.Sprintf("'s%d'", len(repl)+1)
			repl[lit] = r
		}
		b.WriteString(r)
		i = j + 1
	}
	return b.String()
}

// DefaultMaxBytes is the store's size bound when Open is given 0.
const DefaultMaxBytes = 4 << 20 // 4 MiB ≈ thousands of entries

// Store is an on-disk quarantine corpus. It is safe for concurrent use
// within one process; cross-process writers are tolerated (atomic
// renames) but may transiently exceed the size bound.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	added   int64
	deduped int64
	evicted int64
}

// Open creates (if needed) and opens a store rooted at dir. maxBytes
// bounds the directory's total entry size; 0 means DefaultMaxBytes,
// negative disables the bound.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("quarantine: %w", err)
	}
	sweepOrphans(dir)
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// orphanAge is how old a temp file must be before Open deems it a crash
// leftover. The window exists because cross-process writers are allowed:
// a live writer's in-flight temp file is seconds old, a crash orphan is
// not.
const orphanAge = time.Hour

// sweepOrphans removes temp files abandoned by a writer that died
// between CreateTemp and Rename. Best-effort: a failed sweep costs disk,
// not correctness — Load and Stats never look at .tmp-* files.
func sweepOrphans(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanAge)
	for _, de := range ents {
		if de.IsDir() || !strings.HasPrefix(de.Name(), ".tmp-") {
			continue
		}
		if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Add quarantines the entry unless an entry with the same Key already
// exists. It reports the key and whether a new file was written. The
// write is atomic (temp file + rename) and triggers eviction of the
// oldest entries when the store exceeds its byte bound.
func (s *Store) Add(e Entry) (key string, added bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	key = e.Key()
	path := filepath.Join(s.dir, key+".json")
	if validEntryFile(path) {
		s.deduped++
		return key, false, nil
	}
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return key, false, fmt.Errorf("quarantine: encode: %w", err)
	}
	data = append(data, '\n')

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return key, false, fmt.Errorf("quarantine: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return key, false, fmt.Errorf("quarantine: write: %w", err)
	}
	// Persist the bytes before the rename makes them visible: rename is
	// atomic in the namespace, but without the fsync a power cut can
	// commit the name while the contents are still only in page cache —
	// the exact torn-entry shape the crash-consistency test constructs.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return key, false, fmt.Errorf("quarantine: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return key, false, fmt.Errorf("quarantine: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return key, false, fmt.Errorf("quarantine: rename: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash;
	// failure here costs durability of this one entry, not consistency.
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	s.added++
	s.evictLocked(key)
	return key, true, nil
}

// validEntryFile reports whether path holds a complete, decodable entry.
// Dedup must not trust bare existence: a torn committed file (crash
// before the data hit disk) would otherwise satisfy dedup forever and
// the failure it was meant to record could never be re-filed.
func validEntryFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var e Entry
	return json.Unmarshal(data, &e) == nil && e.SQL != ""
}

// evictLocked removes oldest-first entries until the store fits its
// byte bound, never touching keep (the entry just added).
func (s *Store) evictLocked(keep string) {
	if s.maxBytes < 0 {
		return
	}
	type file struct {
		name string
		size int64
		mod  time.Time
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var files []file
	var total int64
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, file{de.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		if total <= s.maxBytes {
			return
		}
		if f.name == keep+".json" {
			continue
		}
		if os.Remove(filepath.Join(s.dir, f.name)) == nil {
			total -= f.size
			s.evicted++
		}
	}
}

// Stats summarizes the store for health endpoints.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Added   int64 `json:"added"`   // new files written by this process
	Deduped int64 `json:"deduped"` // adds suppressed as duplicates
	Evicted int64 `json:"evicted"` // files removed by the size bound
}

// Stats scans the directory and reports its current shape plus this
// process's add/dedup/evict counters.
func (s *Store) Stats() (Stats, error) {
	s.mu.Lock()
	st := Stats{Added: s.added, Deduped: s.deduped, Evicted: s.evicted}
	s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("quarantine: %w", err)
	}
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		st.Entries++
		st.Bytes += info.Size()
	}
	return st, nil
}

// Load reads every entry in the store, oldest first. Torn or foreign
// files are skipped, not fatal — the corpus must remain loadable even
// if a crash or a stray file corrupts one entry.
func (s *Store) Load() ([]Entry, error) { return Load(s.dir) }

// Load reads every quarantine entry under dir, sorted by quarantine
// time then key for determinism.
func Load(dir string) ([]Entry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("quarantine: %w", err)
	}
	var out []Entry
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			continue
		}
		var e Entry
		if json.Unmarshal(data, &e) != nil || e.SQL == "" {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Key() < out[j].Key()
	})
	return out, nil
}
