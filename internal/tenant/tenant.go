// Package tenant simulates a multi-tenant LBA deployment: N concurrent
// monitored applications, each with its own log channel, capture
// configuration and lifeguard, sharing a pool of M lifeguard cores under
// a pluggable scheduler. The paper dedicates spare CMP cores to
// monitoring one application; this package opens the "deployed at scale"
// regime, where monitoring cost and coverage trade off under
// multi-workload contention for the monitoring cores.
//
// The simulation decomposes into two stages:
//
//  1. Profiling (parallel): each tenant runs once, uncontended, through
//     core.ProfileLBA, yielding its log-production timeline — per-record
//     production cycle, compressed size and lifeguard cost, plus syscall
//     containment points. Profiles are memoized by content hash and fan
//     out across goroutines via runner.Map.
//  2. Replay (serial, cheap): the timelines are merged in virtual time
//     and replayed against the shared core pool. Each tenant keeps its
//     own logbuf.Channel (backpressure, drains, lag) while the scheduler
//     assigns records to pool cores; contention surfaces as consumption
//     floors (logbuf.Channel.ProduceAt) that delay drains and fill
//     buffers.
//
// Because stage 1 runs are independent and deterministic, and stage 2 is
// serial, a pool matrix produced by a multi-worker engine is
// byte-identical to the serial reference run — the same contract the
// experiment runner gives figure matrices.
//
// The timeline between the stages is streamed, never materialised: the
// profiling recorder delta-encodes steps into fixed-size varint
// segments (~3 B/step, validating the 32-bit width contract at the
// capture boundary), and every replay path decodes them through a
// bounded window of DefaultStepWindow steps drawn from a recycled buffer
// ring — so peak replay memory is O(tenants x window), independent of
// timeline length, while any window size reproduces the materialised
// replay byte for byte (the tests pin other sizes). See docs/architecture.md (From
// []step to segments and windows) and docs/performance.md (Streaming
// bounded-window replay).
//
// # Scheduling
//
// The replay's record-to-core assignment is a pluggable policy behind the
// Scheduler interface: each Pick receives the record being scheduled, a
// live CoreView per pool core (clock, the requesting tenant's
// shadow-cache warmth there, last tenant served), and a live TenantView
// per tenant (weight, tier, lag deadline, channel state, accumulated
// service). Six policies are registered — round-robin and least-lag (the
// baselines), deadline (bound each tenant's lag tail with an exact
// channel-aware projection), wfq (weighted fair queueing over consumed
// log bytes), priority (strict SLA tiers with WFQ inside a tier; a
// tenant weighing more than 1 is premium) and affinity (warmth-aware
// least-lag with hysteresis). The set is fixed: every policy implements
// the whole contract, including the run methods the production replay
// dispatches through. See docs/architecture.md for the full scheduler
// contract.
//
// # Shadow-cache warmth and migration costs
//
// Lifeguard cores are only fast on a tenant whose shadow working set is
// cache-resident, so each pool core tracks a bounded per-tenant warmth
// (half-life decay under other tenants' service;
// DefaultWarmthHalfLifeBytes) and serving a record on a cold core
// charges PoolConfig.MigrationPenalty scaled by the missing warmth. A
// zero penalty disables the model without changing any policy's timing;
// per-tenant migration counts and cold-serve cycles surface in
// TenantResult and the lba-runner/v1 artifact once it is on. On churned
// replays warmth additionally decays across a core's idle wall-clock
// gaps (DefaultWarmthIdleHalfLifeCycles) — real caches cool while a
// core sits vacant between departures and arrivals — so only fixed-set
// warmth is a pure function of the record-to-core assignment.
//
// # Dynamic tenant churn
//
// Real deployments see tenants arrive and depart rather than a fixed
// population sized for steady state. A tenant description may therefore
// carry an active window (Tenant.ArriveAt/DepartAfter, laid out in bulk
// by ApplyChurn): the replay shifts the tenant's timeline to its
// arrival, schedulers see only live tenants (TenantView.Absent), and a
// departing tenant stops producing at its departure cycle, drains its
// channel, then releases it — evicting its shadow-cache warmth across
// the vacancy. Results gain active-window accounting (arrival, release
// cycle, active span) and the pool-level peak channel concurrency, the
// quantity churn-aware provisioning needs. With every window zero the
// replay is byte-identical to the fixed-set path (pinned against
// pre-churn golden artifacts).
//
// # Admission control
//
// On top of the replay, Engine.PlanAdmissionQuery answers the
// serving-capacity question: the maximum tenant count a pool can serve
// while every tenant's contention factor (wall cycles over its own
// dedicated-core monitored run) stays within an SLO. Queries cover fixed
// and churned populations and repeated-seed confidence bands, and search
// by monotone-envelope bisection that probes O(log N) tenant counts with
// a verified fallback to the exhaustive scan when the probed envelope is
// non-monotone. Points are exported in the lba-runner/v1 JSON artifact's
// admission (and churn) sections.
//
// # Performance
//
// The replay is the package's hot path — sweeps and admission searches
// replay millions of records per pool cell — and has one production
// entry point, ReplayPool (what Engine.RunPool calls). It groups
// consecutive same-tenant records into runs so schedulers amortise their
// ranking work per run (Scheduler.BeginRun and PickNext) instead of per
// record, and draws its working memory from a pooled arena
// so steady-state replays allocate only their results
// (logbuf.Channel.Reset is the channel-reuse hook). ReplayPoolReference
// is the per-record reference — one Pick per record, fresh buffers — kept
// as the differential oracle the batched path is pinned deep-equal
// against. BenchmarkReplay and `lbabench -bench replay` measure the
// production path; docs/performance.md documents the schema and the
// profiling recipes.
//
// A pool with PoolConfig.Shards > 1 (`-shards` on the commands) takes the
// multi-core half of the fast path: the pool splits into K statically-
// partitioned sub-pools — contiguous core groups with an LPT-balanced
// tenant assignment — each replayed with the batched path on its own
// goroutine and merged deterministically. One shard is byte-identical to
// the global batched replay; K >= 2 is a deliberately coarser scheduling
// point (each sub-pool's scheduler sees only its own tenants and cores —
// the paper's dedicated-core regime), pinned parallel == serial rather
// than sharded == global. See internal/tenant/shard.go for the full
// contract.
package tenant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Tenant describes one monitored application in the shared system. Like
// runner.Job it is pure data, so it can be hashed, compared and
// serialised; the profile cache keys on exactly these fields.
type Tenant struct {
	// Name labels the tenant in results; it defaults to the benchmark
	// name, suffixed when FromSuite draws the same benchmark twice.
	Name      string           `json:"name"`
	Benchmark string           `json:"benchmark"`
	Lifeguard string           `json:"lifeguard"`
	Workload  workloads.Config `json:"workload"`
	// Config is the tenant's own design point: capture filtering,
	// compression, and its private channel. ParallelLifeguards and
	// RewindMode are not supported under pooling.
	Config core.Config `json:"config"`

	// ArriveAt is the virtual cycle at which the tenant arrives: its whole
	// timeline is shifted by ArriveAt, it holds no channel and is invisible
	// to schedulers before then. 0 (the default) arrives at the start.
	ArriveAt uint64 `json:"arrive_at,omitempty"`
	// DepartAfter is the absolute virtual cycle after which the tenant
	// stops producing: records past it are never produced, the tenant
	// drains its channel, then releases it (and its shadow-cache warmth).
	// 0 means the tenant never departs. A non-zero DepartAfter at or
	// before ArriveAt is rejected (see ApplyChurn for a generator that
	// always lays out valid windows). Both fields are ignored by the
	// profiling stage — a tenant's uncontended timeline does not depend on
	// when it arrives — so churn variants of one tenant share a profile.
	DepartAfter uint64 `json:"depart_after,omitempty"`
}

// withDefaults normalises a tenant description.
func (t Tenant) withDefaults() Tenant {
	if t.Name == "" {
		t.Name = t.Benchmark
	}
	if t.Lifeguard == "" {
		t.Lifeguard = DefaultLifeguard(t.Benchmark)
	}
	return t
}

// DefaultLifeguard returns the lifeguard the paper evaluates on a
// benchmark: LockSet for the multithreaded pair, AddrCheck elsewhere.
func DefaultLifeguard(benchmark string) string {
	if spec, err := workloads.ByName(benchmark); err == nil && spec.MultiThreaded {
		return "LockSet"
	}
	return "AddrCheck"
}

// FromSuite returns n tenants drawn round-robin from the nine-benchmark
// suite (SuiteTenant 0 through n-1).
func FromSuite(n int, wcfg workloads.Config, ccfg core.Config) ([]Tenant, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tenant: need at least one tenant, got %d", n)
	}
	tenants := make([]Tenant, n)
	for i := range tenants {
		tenants[i] = SuiteTenant(i, wcfg, ccfg)
	}
	return tenants, nil
}

// SuiteTenant returns suite draw i (0-based): the suite's benchmarks in
// round-robin order, each with the lifeguard the paper evaluates on it
// and the given workload scale and design point. Repeated draws of the
// same benchmark get distinct names (and seeds offset by the repeat
// count, so the system serves genuinely distinct instances).
func SuiteTenant(i int, wcfg workloads.Config, ccfg core.Config) Tenant {
	specs := workloads.All()
	spec := specs[i%len(specs)]
	t := Tenant{
		Name:      spec.Name,
		Benchmark: spec.Name,
		Lifeguard: DefaultLifeguard(spec.Name),
		Workload:  wcfg,
		Config:    ccfg,
	}
	if round := i / len(specs); round > 0 {
		t.Name = fmt.Sprintf("%s#%d", spec.Name, round+1)
		t.Workload.Seed = wcfg.Seed + uint64(round)
	}
	return t
}
