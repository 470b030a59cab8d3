package runner

import (
	"encoding/json"
	"io"
	"os"
	"sort"

	"repro/internal/core"
)

// Schema identifies the JSON layout emitted by WriteJSON, for trajectory
// tooling that tracks BENCH_*.json artifacts across commits.
const Schema = "lba-runner/v1"

// Row is the flattened, JSON-friendly view of one executed job: the job's
// identity plus every scalar the simulation measured. Pointers into live
// simulator state (replay window, memory image) are deliberately dropped.
type Row struct {
	Key       string `json:"key"`
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	Lifeguard string `json:"lifeguard,omitempty"`
	Scale     int    `json:"scale"`
	Seed      uint64 `json:"seed"`

	Instructions      uint64  `json:"instructions"`
	AppCycles         uint64  `json:"app_cycles"`
	WallCycles        uint64  `json:"wall_cycles"`
	LgCycles          uint64  `json:"lg_cycles,omitempty"`
	BufferStallCycles uint64  `json:"buffer_stall_cycles,omitempty"`
	DrainStallCycles  uint64  `json:"drain_stall_cycles,omitempty"`
	DrainEvents       uint64  `json:"drain_events,omitempty"`
	Records           uint64  `json:"records"`
	FilteredOut       uint64  `json:"filtered_out,omitempty"`
	LogBits           uint64  `json:"log_bits,omitempty"`
	BytesPerRecord    float64 `json:"bytes_per_record,omitempty"`
	MemRefFraction    float64 `json:"mem_ref_fraction"`
	Violations        int     `json:"violations,omitempty"`
}

// rowOf flattens one executed job.
func rowOf(key string, job Job, res *core.Result) Row {
	return Row{
		Key:       key,
		Benchmark: job.Benchmark,
		Mode:      job.Mode.String(),
		Lifeguard: job.Lifeguard,
		Scale:     job.Workload.Scale,
		Seed:      job.Workload.Seed,

		Instructions:      res.Instructions,
		AppCycles:         res.AppCycles,
		WallCycles:        res.WallCycles,
		LgCycles:          res.LgCycles,
		BufferStallCycles: res.BufferStallCycles,
		DrainStallCycles:  res.DrainStallCycles,
		DrainEvents:       res.DrainEvents,
		Records:           res.Records,
		FilteredOut:       res.FilteredOut,
		LogBits:           res.LogBits,
		BytesPerRecord:    res.BytesPerRecord,
		MemRefFraction:    res.MemRefFraction,
		Violations:        len(res.Violations),
	}
}

// TenantRow is the flattened view of one tenant inside one pool cell of a
// multi-tenant run (internal/tenant). Like Row it is pure data, so the
// schema stays self-contained.
type TenantRow struct {
	Name      string `json:"name"`
	Benchmark string `json:"benchmark"`
	Lifeguard string `json:"lifeguard"`

	Instructions  uint64  `json:"instructions"`
	AppCycles     uint64  `json:"app_cycles"`
	WallCycles    uint64  `json:"wall_cycles"`
	BaseCycles    uint64  `json:"base_cycles"`
	LBAWallCycles uint64  `json:"lba_wall_cycles,omitempty"`
	Slowdown      float64 `json:"slowdown"`
	// ContentionX normalises the tenant's wall clock to its uncontended
	// monitored run: the share of the slowdown the *pool* (not the
	// lifeguard) is responsible for. Admission SLOs bound this quantity.
	ContentionX float64 `json:"contention_x,omitempty"`

	StallEvents uint64 `json:"stall_events,omitempty"`
	StallCycles uint64 `json:"stall_cycles,omitempty"`
	DrainEvents uint64 `json:"drain_events,omitempty"`
	DrainCycles uint64 `json:"drain_cycles,omitempty"`

	Records uint64 `json:"records"`
	LogBits uint64 `json:"log_bits,omitempty"`

	MeanLagCycles float64 `json:"mean_lag_cycles"`
	LagP50Cycles  uint64  `json:"lag_p50_cycles"`
	LagP95Cycles  uint64  `json:"lag_p95_cycles"`
	MaxLagCycles  uint64  `json:"max_lag_cycles"`

	// Migrations counts records served on a different pool core than the
	// tenant's previous record; ColdServeCycles is the total migration
	// charge those cold serves cost. Both appear only when the cell ran
	// with a non-zero migration penalty, so zero-penalty artifacts stay
	// byte-identical to the pre-warmth schema.
	Migrations      uint64 `json:"migrations,omitempty"`
	ColdServeCycles uint64 `json:"cold_serve_cycles,omitempty"`

	// Churn accounting, present only when the cell replayed a churning
	// tenant set (so fixed-set artifacts keep the fixed-set schema):
	// ArriveAt is the tenant's arrival cycle, DepartAt the wall-clock
	// cycle at which a departing tenant released its channel, and
	// ActiveCycles the active span (wall minus arrival) its lag and stall
	// metrics cover.
	ArriveAt     uint64 `json:"arrive_at,omitempty"`
	DepartAt     uint64 `json:"depart_at,omitempty"`
	ActiveCycles uint64 `json:"active_cycles,omitempty"`

	Violations int `json:"violations,omitempty"`
}

// TenantCell is one cell of a tenant matrix: a tenant set served by a
// lifeguard-core pool of a given size under a given scheduling policy,
// with per-tenant rows plus the cell's aggregates.
type TenantCell struct {
	Cores  int    `json:"cores"`
	Policy string `json:"policy"`
	// Weights, DeadlineCycles and MigrationPenalty echo the scheduler's
	// policy inputs when the cell was configured with any, so artifacts
	// stay self-describing across wfq / priority / deadline / affinity
	// runs.
	Weights          []float64   `json:"weights,omitempty"`
	DeadlineCycles   uint64      `json:"deadline_cycles,omitempty"`
	MigrationPenalty uint64      `json:"migration_penalty,omitempty"`
	Tenants          []TenantRow `json:"tenants"`
	MeanSlowdown     float64     `json:"mean_slowdown"`
	MaxSlowdown      float64     `json:"max_slowdown"`
	MeanContentionX  float64     `json:"mean_contention_x,omitempty"`
	MaxContentionX   float64     `json:"max_contention_x,omitempty"`
	MakespanCycles   uint64      `json:"makespan_cycles"`
	Utilisation      float64     `json:"utilisation"`
	// Shards is the sub-pool count of a sharded replay; present only when
	// the cell actually partitioned (>= 2 shards, static-partitioning
	// semantics), so single-pool artifacts keep the unsharded schema.
	Shards int `json:"shards,omitempty"`
	// Migrations and ColdServeCycles aggregate the per-tenant migration
	// accounting; present only under a non-zero migration penalty.
	Migrations      uint64 `json:"migrations,omitempty"`
	ColdServeCycles uint64 `json:"cold_serve_cycles,omitempty"`
	// PeakConcurrency is the largest number of tenants simultaneously
	// holding a channel; present only when the cell replayed a churning
	// tenant set.
	PeakConcurrency int `json:"peak_concurrency,omitempty"`
}

// AdmissionPoint is one admission-control answer in the lba-runner/v1
// schema: the maximum tenant count a pool can serve while keeping every
// tenant's contention factor (wall cycles over its uncontended monitored
// run) within the SLO (internal/tenant's admission planner).
// SearchedTenants is the scan bound; MaxTenants == SearchedTenants means
// the pool never saturated within the scan.
type AdmissionPoint struct {
	SLOContentionX  float64 `json:"slo_contention_x"`
	Cores           int     `json:"cores"`
	Policy          string  `json:"policy"`
	MaxTenants      int     `json:"max_tenants"`
	ContentionAtMax float64 `json:"contention_at_max,omitempty"`
	SearchedTenants int     `json:"searched_tenants"`
	// FallbackScan marks a point whose bisection probes revealed a
	// non-monotone contention envelope, so the answer was recomputed by
	// the exhaustive linear scan. Seeds/TenantsLo/TenantsHi carry the
	// repeated-seed confidence band when the query replicated across
	// workload seeds (MaxTenants is then the band minimum), and ChurnRate
	// echoes the churn layout of the candidate populations. All are
	// omitted for fixed-set single-seed monotone searches, keeping those
	// artifacts on the linear-scan-era schema.
	FallbackScan bool    `json:"fallback_scan,omitempty"`
	Seeds        int     `json:"seeds,omitempty"`
	TenantsLo    int     `json:"tenants_lo,omitempty"`
	TenantsHi    int     `json:"tenants_hi,omitempty"`
	ChurnRate    float64 `json:"churn_rate,omitempty"`
}

// ChurnPoint is one answer of the churn planning sweep (`lbabench -fig
// churn`): under a churn rate (arrival spacing in units of a tenant
// lifetime) and a contention SLO, how many tenants the pool admits, what
// the admitted population's peak channel concurrency is, and what the
// bisection spent finding out.
type ChurnPoint struct {
	ChurnRate       float64 `json:"churn_rate"`
	Cores           int     `json:"cores"`
	Policy          string  `json:"policy"`
	SLOContentionX  float64 `json:"slo_contention_x"`
	MaxTenants      int     `json:"max_tenants"`
	TenantsLo       int     `json:"tenants_lo,omitempty"`
	TenantsHi       int     `json:"tenants_hi,omitempty"`
	Seeds           int     `json:"seeds,omitempty"`
	SearchedTenants int     `json:"searched_tenants"`
	PeakConcurrency int     `json:"peak_concurrency,omitempty"`
	Probes          int     `json:"probes,omitempty"`
	FallbackScan    bool    `json:"fallback_scan,omitempty"`
}

// Report is the structured result of an engine's lifetime: every unique
// simulation it executed, plus caller-supplied headline metrics, any
// multi-tenant pool cells, and any admission-control points. The rows are
// sorted by (benchmark, mode, lifeguard, key) and Workers stays out of the
// encoding, so the emitted JSON is byte-identical regardless of worker
// count or completion order.
type Report struct {
	Schema string `json:"schema"`
	// Workers is informational only and deliberately excluded from the
	// JSON: artifact bytes must not depend on the pool width that
	// produced them (the cmd-level golden determinism test relies on
	// this).
	Workers     int                `json:"-"`
	CacheHits   uint64             `json:"cache_hits,omitempty"`
	CacheMisses uint64             `json:"cache_misses,omitempty"`
	Rows        []Row              `json:"rows"`
	TenantCells []TenantCell       `json:"tenant_cells,omitempty"`
	Admission   []AdmissionPoint   `json:"admission,omitempty"`
	Churn       []ChurnPoint       `json:"churn,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// SortRows orders rows deterministically.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.Lifeguard != b.Lifeguard {
			return a.Lifeguard < b.Lifeguard
		}
		return a.Key < b.Key
	})
}

// Report snapshots the engine: one row per unique simulation executed so
// far (failed or still-in-flight jobs are omitted), with rows in
// deterministic order.
func (e *Engine) Report() *Report {
	keys := e.memo.Keys()
	rows := make([]Row, 0, len(keys))
	for _, key := range keys {
		res, ok := e.memo.Peek(key)
		if !ok || res == nil {
			continue
		}
		e.mu.Lock()
		job := e.jobs[key]
		e.mu.Unlock()
		rows = append(rows, rowOf(key, job, res))
	}

	SortRows(rows)
	return &Report{
		Schema:      Schema,
		Workers:     e.workers,
		CacheHits:   e.CacheHits(),
		CacheMisses: e.CacheMisses(),
		Rows:        rows,
	}
}

// WriteJSON emits the report as indented JSON, suitable for BENCH_*.json
// trajectory artifacts.
func WriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteJSONFile writes the report to path, failing on any write or close
// error so a truncated artifact never passes silently.
func WriteJSONFile(path string, rep *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
