// Package runner is the concurrent experiment-execution engine behind the
// evaluation harness. A caller describes an experiment matrix as a slice of
// declarative Jobs (benchmark × mode × lifeguard × design point); the
// engine fans the matrix out across a worker pool, memoizes shared
// sub-results (every workload's unmonitored baseline, identical sweep
// cells) behind a content hash of the job, and hands results back in input
// order so parallel output is byte-identical to serial output.
//
// The fan-out (Map) and the single-flight cache (Memo) are exported as
// generic building blocks: the tenant simulation reuses them to fan
// per-tenant profiling across goroutines with the same determinism
// contract.
//
// The simulator itself is deterministic and shares no mutable state
// between runs, which is what makes both the parallelism and the
// memoization sound: two jobs with equal keys produce deep-equal Results,
// so the engine runs one and shares the pointer. Callers must treat
// memoized Results as immutable.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Job is one cell of an experiment matrix: a workload generated at a given
// scale, run in one system mode under one lifeguard and one design point.
// Jobs are pure data — the benchmark is named, not built, so a Job can be
// hashed, compared and serialised.
type Job struct {
	Benchmark string           `json:"benchmark"`
	Mode      core.Mode        `json:"mode"`
	Lifeguard string           `json:"lifeguard,omitempty"` // ignored for ModeUnmonitored
	Workload  workloads.Config `json:"workload"`
	Config    core.Config      `json:"config"`
}

// normalized clears fields that cannot influence the outcome, so that e.g.
// the AddrCheck and TaintCheck panels share one memoized baseline per
// workload even though each panel names its own lifeguard on the
// unmonitored job.
func (j Job) normalized() Job {
	if j.Mode == core.ModeUnmonitored {
		j.Lifeguard = ""
	}
	return j
}

// Key returns the job's memoization key: a content hash over every field
// that can influence the simulation outcome.
func (j Job) Key() string { return HashKey(j.normalized()) }

// Outcome pairs a matrix job with its result. Result is shared with the
// memoization cache and must not be mutated.
type Outcome struct {
	Job    Job
	Result *core.Result
}

// Engine executes jobs across a worker pool with memoization. An Engine is
// safe for concurrent use; its cache lives for the Engine's lifetime, so
// sharing one Engine across sweeps shares their baselines.
type Engine struct {
	workers int
	runFn   func(Job) (*core.Result, error) // replaced by unit tests

	memo *Memo[*core.Result]

	mu   sync.Mutex
	jobs map[string]Job // normalized job per key, for Report
}

// New returns an engine with the given pool width. workers <= 0 selects
// runtime.NumCPU(); workers == 1 executes matrices serially in input
// order, which is the reference behaviour every parallel run must match.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{
		workers: workers,
		runFn:   runJob,
		memo:    NewMemo[*core.Result](),
		jobs:    make(map[string]Job),
	}
}

// runJob resolves and executes one job against the real simulator.
func runJob(j Job) (*core.Result, error) {
	spec, err := workloads.ByName(j.Benchmark)
	if err != nil {
		return nil, err
	}
	return core.Run(j.Mode, spec.Build(j.Workload), j.Lifeguard, j.Config)
}

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.workers }

// CacheHits reports how many Run calls were served from the memoization
// cache (including waits on a result another worker was computing).
func (e *Engine) CacheHits() uint64 { return e.memo.Hits() }

// CacheMisses reports how many Run calls actually executed a simulation.
func (e *Engine) CacheMisses() uint64 { return e.memo.Misses() }

// Run executes one job, memoized. If an equal job is already cached or in
// flight its result is shared; otherwise this goroutine runs it. The
// context only bounds the wait on an in-flight result — a simulation that
// has started always runs to completion (runs are short relative to a
// matrix; per-job granularity is where cancellation applies).
func (e *Engine) Run(ctx context.Context, job Job) (*core.Result, error) {
	return e.run(ctx, job, e.runFn)
}

// Adopt is Run for a result the caller already holds: res must be what
// Run would compute for job. The job is memoized and counted under the
// same key as Run's: a hit returns the result cached (or in flight)
// under the key, and a miss caches res. The tenant engine adopts the
// unmonitored baselines core.ProfileLBA derives from its profiling runs.
func (e *Engine) Adopt(ctx context.Context, job Job, res *core.Result) (*core.Result, error) {
	return e.run(ctx, job, func(Job) (*core.Result, error) { return res, nil })
}

func (e *Engine) run(ctx context.Context, job Job, fn func(Job) (*core.Result, error)) (*core.Result, error) {
	norm := job.normalized()
	key := HashKey(norm)
	e.mu.Lock()
	if _, ok := e.jobs[key]; !ok {
		e.jobs[key] = norm
	}
	e.mu.Unlock()
	return e.memo.Do(ctx, key, func() (*core.Result, error) {
		return fn(norm)
	})
}

// RunMatrix fans jobs out across the worker pool and returns one Outcome
// per job, in input order regardless of completion order. The first job
// error cancels the rest of the matrix and is returned; a cancelled
// context stops feeding new jobs and returns the context's error.
func (e *Engine) RunMatrix(ctx context.Context, jobs []Job) ([]Outcome, error) {
	return Map(ctx, e.workers, len(jobs), func(ctx context.Context, i int) (Outcome, error) {
		res, err := e.Run(ctx, jobs[i])
		if err != nil {
			j := jobs[i]
			return Outcome{}, fmt.Errorf("runner: job %d (%s/%s/%s): %w",
				i, j.Benchmark, j.Mode, lifeguardLabel(j), err)
		}
		return Outcome{Job: jobs[i], Result: res}, nil
	})
}

func lifeguardLabel(j Job) string {
	if j.Mode == core.ModeUnmonitored || j.Lifeguard == "" {
		return "-"
	}
	return j.Lifeguard
}
