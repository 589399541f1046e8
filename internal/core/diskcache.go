package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// diskCacheSchema versions the on-disk entry layout. Bump it whenever
// the serialized result shape or the meaning of any RunConfig field
// changes: entries with a different schema are ignored, never trusted.
const diskCacheSchema = 8 // 8: Result.Noise became Result.Faults, with the fault counts (7: an entry is a RunRecord; 6: Config and Result lost the engine-choice fields; 5: Config gained CritEdgeCap; 4: Result gained CritPath, Config gained CritPath)

// DiskCache persists completed run results across processes, extending
// the Runner's in-memory single-flight memoization. Entries are keyed
// by the canonical RunConfig fingerprint (the same normalization the
// in-memory cache uses, validated by fingerprint_test.go). An
// entry is the run's RunRecord — the same record the run log writes,
// without its host fields — plus a schema version and the full
// canonical fingerprint text; a load only hits when schema, key hash,
// record label and fingerprint text all match, so corrupt files, hash
// collisions, and entries written by an older RunConfig layout are all
// treated as misses and re-simulated.
//
// The Runner stores only successful runs, and only of configurations
// that record no observations: a run with TraceCap, SpanCap or CritPath
// set executes for its trace, span or causal-edge rings, which the
// record cannot hold, so such a configuration is
// neither loaded from nor stored to disk and executes once per process.
//
// Concurrent use — including by unrelated processes sharing the
// directory — is safe: writes go to a unique temp file first and are
// renamed into place, so readers see either a complete entry or none.
type DiskCache struct {
	dir string
}

// OpenDiskCache opens (creating if needed) a result cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// diskEntry is the JSON layout of one cached run.
type diskEntry struct {
	Schema int    `json:"schema"`
	Config string `json:"config"` // canonical RunConfig, %+v rendering
	RunRecord
}

// path returns the entry file for a canonical (fingerprinted) config.
func (dc *DiskCache) path(key RunConfig) string {
	return filepath.Join(dc.dir, fmt.Sprintf("%s_%s_%s.json", key.App, key.Mech, FingerprintLabel(key)))
}

// canonicalText renders the canonical fingerprint as the collision- and
// staleness-proof validation string stored inside each entry. A new
// RunConfig field changes this rendering, so entries written before the
// field existed stop matching even without a schema bump.
func canonicalText(key RunConfig) string { return fmt.Sprintf("%+v", key) }

// Load returns the cached result for an already-fingerprinted config,
// or ok=false when there is no trustworthy entry (absent, unreadable,
// corrupt, wrong schema, or fingerprint mismatch). Untrustworthy
// entries are ignored, not deleted: a concurrent writer with a newer
// schema may own the file.
func (dc *DiskCache) Load(key RunConfig) (RunResult, bool) {
	data, err := os.ReadFile(dc.path(key))
	if err != nil {
		return RunResult{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return RunResult{}, false
	}
	if e.Schema != diskCacheSchema || e.Config != canonicalText(key) ||
		e.Fingerprint != FingerprintLabel(key) || e.Result == nil {
		return RunResult{}, false
	}
	return RunResult{Result: *e.Result, App: key.App, Mech: key.Mech}, true
}

// Store persists one successful run. Failures are reported to the
// caller but are safe to ignore: the cache is an accelerator, not a
// store of record.
func (dc *DiskCache) Store(key RunConfig, res RunResult) error {
	e := diskEntry{Schema: diskCacheSchema, Config: canonicalText(key), RunRecord: newRecord(key, res, nil)}
	data, err := json.MarshalIndent(&e, "", "\t")
	if err != nil {
		return fmt.Errorf("core: disk cache: %w", err)
	}
	f, err := os.CreateTemp(dc.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("core: disk cache: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return fmt.Errorf("core: disk cache: %w", werr)
	}
	if err := os.Rename(f.Name(), dc.path(key)); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("core: disk cache: %w", err)
	}
	return nil
}
