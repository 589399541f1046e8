package core

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mesh"
)

// Runner executes experiment runs on a worker pool with memoization.
// Simulations are isolated per machine.New and workloads are generated
// from fixed seeds, so a run's result depends only on its RunConfig;
// the runner exploits both properties: identical configurations execute
// once (single-flight, cached), and distinct configurations execute
// concurrently. Results are bit-identical to serial execution.
//
// A Runner is safe for concurrent use. Cached results are shared — treat
// RunResult (including its PerProc slice and observation rings) as read-only.
type Runner struct {
	workers int

	mu    sync.Mutex
	cache map[RunConfig]*runnerEntry

	hits     atomic.Uint64
	diskHits atomic.Uint64
	executed atomic.Uint64

	failMu   sync.Mutex
	failures []*RunError

	tele atomic.Pointer[Telemetry]
	disk atomic.Pointer[DiskCache]
}

// runnerEntry is one memoized (possibly in-flight) run.
type runnerEntry struct {
	done chan struct{} // closed when res/err are valid
	res  RunResult
	err  error
}

// NewRunner returns a runner with the given worker-pool width; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, cache: make(map[RunConfig]*runnerEntry)}
}

// DefaultRunner is the shared runner the figures and the repro facade
// sweep on. Its cache persists across sweeps, so e.g. regenerating
// Figure 8 after Figure 7 reuses any overlapping points.
var DefaultRunner = NewRunner(0)

// SetDefaultWorkers resets the default runner to n workers (n <= 0 means
// GOMAXPROCS) with a fresh cache. It is not safe to call concurrently
// with sweeps on the default runner.
func SetDefaultWorkers(n int) { DefaultRunner = NewRunner(n) }

// Workers reports the pool width.
func (r *Runner) Workers() int { return r.workers }

// Stats reports how many runs were served from cache and how many
// actually executed a simulation.
func (r *Runner) Stats() (hits, executed uint64) {
	return r.hits.Load(), r.executed.Load()
}

// DiskHits reports how many runs were served from the persistent disk
// cache (a subset of neither Stats counter: disk hits execute no
// simulation and did not hit the in-memory cache).
func (r *Runner) DiskHits() uint64 { return r.diskHits.Load() }

// SetDiskCache attaches (or, with nil, detaches) a persistent result
// cache: subsequent misses of the in-memory cache consult the disk
// before simulating, and executed runs are stored back. Safe to call
// concurrently with sweeps.
func (r *Runner) SetDiskCache(dc *DiskCache) { r.disk.Store(dc) }

// SetTelemetry attaches (or, with nil, detaches) an observability sink:
// every subsequent Run — cache hit or miss — is logged to it, and
// executed runs write their timeline/metrics/trace artifacts. Safe to
// call concurrently with sweeps; in-flight runs may record to either
// sink around the switch.
func (r *Runner) SetTelemetry(t *Telemetry) { r.tele.Store(t) }

// ClearCache drops all memoized results.
func (r *Runner) ClearCache() {
	r.mu.Lock()
	r.cache = make(map[RunConfig]*runnerEntry)
	r.mu.Unlock()
}

// Failures returns the crashed runs recovered so far, one per distinct
// failing configuration (cache hits on a failed entry do not re-report).
// Callers like paperbench use it to report sweep failures and exit
// nonzero after letting the surviving points complete.
func (r *Runner) Failures() []*RunError {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return append([]*RunError(nil), r.failures...)
}

// fingerprint canonicalizes rc into the cache key: knobs that cannot
// affect the simulation are normalized away so incidentally-different
// configurations still dedupe. machine.Config is comparable (scalars
// only), so the canonical RunConfig is itself the key.
func fingerprint(rc RunConfig) RunConfig {
	if rc.Machine.CrossTraffic.BytesPerCycle == 0 {
		// Cross-traffic is only started for a nonzero rate; the message
		// size is inert without it.
		rc.Machine.CrossTraffic = mesh.CrossTraffic{}
	}
	if rc.Machine.FaultSpec == "" {
		// The fault seed is inert without a fault spec.
		rc.Machine.FaultSeed = 0
	}
	if rc.Machine.NoiseSpec == "" {
		// Likewise, the noise seed is inert without a noise spec.
		rc.Machine.NoiseSeed = 0
	}
	if !rc.Machine.CritPath {
		// The edge-ring capacity is inert without the critical-path
		// profiler. With it, distinct caps key separately: they change
		// which edges the rings retain, and through them the recorder
		// and top-edge summary a cached RunResult carries.
		rc.Machine.CritEdgeCap = 0
	}
	if rc.Machine.Nodes() == BaseProcs {
		// Weak and strong scaling coincide at the paper's machine size
		// (the problem-growth factor is 1), so the flag is inert.
		rc.ScaleProblem = false
	}
	return rc
}

// Run executes one configuration, memoized and single-flight: the first
// caller for a fingerprint runs the simulation, concurrent duplicates
// block on it, later duplicates return the cached result immediately.
func (r *Runner) Run(rc RunConfig) (RunResult, error) {
	key := fingerprint(rc)
	r.mu.Lock()
	e, ok := r.cache[key]
	if ok {
		r.mu.Unlock()
		r.hits.Add(1)
		start := time.Now()
		<-e.done
		r.tele.Load().observe(rc, e.res, e.err, time.Since(start), true)
		return e.res, e.err
	}
	e = &runnerEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	if dc := r.disk.Load(); dc != nil {
		if res, ok := dc.Load(key); ok {
			r.diskHits.Add(1)
			e.res = res
			close(e.done)
			r.tele.Load().observe(rc, e.res, nil, 0, true)
			return e.res, nil
		}
	}
	r.executed.Add(1)
	start := time.Now()
	e.res, e.err = Run(rc)
	wall := time.Since(start)
	if re, ok := e.err.(*RunError); ok {
		r.failMu.Lock()
		r.failures = append(r.failures, re)
		r.failMu.Unlock()
	}
	close(e.done)
	if dc := r.disk.Load(); dc != nil && e.err == nil {
		if serr := dc.Store(key, e.res); serr != nil {
			fmt.Fprintf(os.Stderr, "core: %v\n", serr)
		}
	}
	r.tele.Load().observe(rc, e.res, e.err, wall, false)
	return e.res, e.err
}

// RunBatch executes configurations on the worker pool and returns their
// results in input order, or the first error in input order. Every job
// runs to completion first, so the error reported does not depend on
// scheduling.
func (r *Runner) RunBatch(rcs []RunConfig) ([]RunResult, error) {
	out, errs := r.RunBatchAll(rcs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunBatchAll executes every configuration on the worker pool, never
// aborting: errs[i] is non-nil exactly where job i failed, and one
// crashing point leaves the rest of the batch completed — this is the
// sweep runners' isolation guarantee.
func (r *Runner) RunBatchAll(rcs []RunConfig) (out []RunResult, errs []error) {
	out = make([]RunResult, len(rcs))
	errs = make([]error, len(rcs))
	workers := r.workers
	if workers > len(rcs) {
		workers = len(rcs)
	}
	if workers <= 1 {
		for i, rc := range rcs {
			out[i], errs[i] = r.Run(rc)
		}
		return out, errs
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(rcs) {
					return
				}
				out[i], errs[i] = r.Run(rcs[i])
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// allFailed returns the first error if every job in a nonempty batch
// failed (a wholly failed sweep should surface, not return empty points),
// and nil otherwise.
func allFailed(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}
