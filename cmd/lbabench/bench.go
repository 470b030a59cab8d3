// Replay-benchmark mode: `lbabench -bench replay` times the multi-tenant
// replay's production path (tenant.ReplayPool) on pinned workloads and
// emits the trajectory as BENCH_replay.json (schema lba-bench-replay/v2)
// for CI's benchmark-trajectory artifacts. The per-policy cells are the
// ones BenchmarkReplay/batched measures in internal/tenant; this command
// exists so the trajectory lands in one self-describing JSON file rather
// than in `go test -bench` text output. See docs/performance.md for the
// field-by-field schema and the CI pinning recipe.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// The replay benchmark always runs the canonical 4-tenant suite on a
// 2-core pool with the default migration penalty — the same cell
// BenchmarkReplay pins — so BENCH_replay.json artifacts compare across
// commits. None of the sweep flags apply; run() rejects them.
const (
	benchReplaySchema = "lba-bench-replay/v2"
	benchTenants      = 4
	benchScale        = 300_000
	benchCores        = 2
	benchPenalty      = 320
	// benchReps replays each cell this many times and keeps the fastest —
	// the standard guard against scheduler noise on a shared CI runner.
	benchReps = 3
)

// The sharded section scales the pinned cell up — twice the tenants on a
// paper-sized 8-core pool — so a 4-way static partition has enough
// independent work per shard for the parallel replay to show its slope.
// The policy is pinned to affinity with the migration model on: its
// per-record warmth scan walks every core, so it is the policy whose
// cost grows fastest with pool width — the speedup rows capture both the
// per-shard state shrink (each sub-pool scans only its own cores and
// tenants, measurable even on one hardware thread) and, on multi-core
// runners, the concurrent shard replays on top.
const (
	benchShardTenants = 8
	benchShardCores   = 8
	benchShardPolicy  = tenant.PolicyAffinity
)

// benchShardCounts are the partition widths the trajectory tracks;
// ReplayPool replays shards=1 unsharded, so the first row doubles as the
// section's serial baseline.
var benchShardCounts = []int{1, 2, 4}

// The streaming section measures the bounded-window replay pipeline: a
// generator-backed synthetic tenant pair (O(1) resident timeline, so the
// measured heap growth is the replay's own footprint) replayed at each
// decoded-window size, reporting throughput and live-heap growth per
// window. Two tenants on two cores keep the merge and scheduler real
// while the timeline dominates the work.
const (
	benchStreamSteps   = 2_000_000
	benchStreamTenants = 2
	benchStreamCores   = 2
)

// benchStreamWindows are the decoded-window sizes (steps per refill) the
// memory/throughput curve tracks; 1024 is DefaultStepWindow.
var benchStreamWindows = []int{128, 512, 1024, 8192}

// benchDispatchStats is one measured cell of the report.
type benchDispatchStats struct {
	NsPerReplay     float64 `json:"ns_per_replay"`
	NsPerRecord     float64 `json:"ns_per_record"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	AllocsPerReplay float64 `json:"allocs_per_replay"`
	BytesPerReplay  float64 `json:"bytes_per_replay"`
}

// benchPolicyRow is the batched replay's cost under one scheduling policy.
type benchPolicyRow struct {
	Policy  string             `json:"policy"`
	Batched benchDispatchStats `json:"batched"`
}

// benchHeadline aggregates the trajectory number CI pins: total records
// replayed across every policy divided by total (fastest-rep) time.
type benchHeadline struct {
	BatchedRecordsPerSec float64 `json:"batched_records_per_sec"`
}

type benchSuiteDesc struct {
	Tenants          int    `json:"tenants"`
	Scale            int    `json:"scale"`
	Cores            int    `json:"cores"`
	MigrationPenalty uint64 `json:"migration_penalty"`
	RecordsPerReplay uint64 `json:"records_per_replay"`
	Reps             int    `json:"reps"`
}

// benchShardRow is one partition width of the sharded section; SpeedupX
// is this row's records/sec over the shards=1 (batched) row's.
type benchShardRow struct {
	Shards   int                `json:"shards"`
	Stats    benchDispatchStats `json:"stats"`
	SpeedupX float64            `json:"speedup_x"`
}

// benchShardedSection is the multi-core replay trajectory: the same
// records replayed under static partitioning at each shard count.
type benchShardedSection struct {
	Tenants          int             `json:"tenants"`
	Scale            int             `json:"scale"`
	Cores            int             `json:"cores"`
	MigrationPenalty uint64          `json:"migration_penalty"`
	Policy           string          `json:"policy"`
	RecordsPerReplay uint64          `json:"records_per_replay"`
	Reps             int             `json:"reps"`
	Rows             []benchShardRow `json:"rows"`
}

// benchStreamRow is one decoded-window size of the streaming section.
// PeakHeapBytes is the replay's live-heap growth measured cold (GC run
// first, then disabled): the arena, the window ring at this size and the
// result — the number that stays flat as timelines grow (see
// TestSyntheticProfileHeapBounded).
type benchStreamRow struct {
	WindowSteps   int     `json:"window_steps"`
	NsPerReplay   float64 `json:"ns_per_replay"`
	RecordsPerSec float64 `json:"records_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
}

// benchStreamingSection is the bounded-window replay trajectory:
// throughput and peak heap per window size over a synthetic tenant pair,
// plus the pinned suite's measured timeline-encoding density.
type benchStreamingSection struct {
	Steps   int `json:"steps"`
	Tenants int `json:"tenants"`
	Cores   int `json:"cores"`
	Reps    int `json:"reps"`
	// EncodedBytesPerStep is measured on the pinned suite's profiles: the
	// segment encoding's density against the 16 B/step materialised form.
	SuiteEncodedBytes   uint64           `json:"suite_encoded_bytes"`
	SuiteSteps          uint64           `json:"suite_steps"`
	EncodedBytesPerStep float64          `json:"encoded_bytes_per_step"`
	Rows                []benchStreamRow `json:"rows"`
}

type benchReport struct {
	Schema    string                `json:"schema"`
	Suite     benchSuiteDesc        `json:"suite"`
	Policies  []benchPolicyRow      `json:"policies"`
	Sharded   benchShardedSection   `json:"sharded"`
	Streaming benchStreamingSection `json:"streaming"`
	Headline  benchHeadline         `json:"headline"`
}

// benchReplay runs the full benchmark matrix and prints the per-policy
// table; when jsonPath is non-empty the structured report lands there,
// and when diffSchemaPath is non-empty the fresh report's JSON key-path
// set is diffed against the committed trajectory file so a silent schema
// change fails the bench step, not a downstream consumer.
func (s *session) benchReplay(jsonPath, diffSchemaPath string) error {
	profiles, err := benchProfiles(benchTenants)
	if err != nil {
		return err
	}
	rep := benchReport{
		Schema: benchReplaySchema,
		Suite: benchSuiteDesc{Tenants: benchTenants, Scale: benchScale, Cores: benchCores,
			MigrationPenalty: benchPenalty, Reps: benchReps},
	}
	var batchedTotal time.Duration
	for _, policy := range tenant.Policies() {
		pool := tenant.PoolConfig{Cores: benchCores, Policy: policy, MigrationPenalty: benchPenalty}
		batched, records, err := measureReplay(profiles, pool)
		if err != nil {
			return err
		}
		rep.Suite.RecordsPerReplay = records
		batchedTotal += time.Duration(batched.NsPerReplay)
		rep.Policies = append(rep.Policies, benchPolicyRow{Policy: policy, Batched: batched})
	}
	totalRecords := float64(rep.Suite.RecordsPerReplay) * float64(len(rep.Policies))
	rep.Headline = benchHeadline{BatchedRecordsPerSec: totalRecords / batchedTotal.Seconds()}

	shardProfiles, err := benchProfiles(benchShardTenants)
	if err != nil {
		return err
	}
	rep.Sharded = benchShardedSection{
		Tenants: benchShardTenants, Scale: benchScale, Cores: benchShardCores,
		MigrationPenalty: benchPenalty, Policy: benchShardPolicy, Reps: benchReps,
	}
	for _, shards := range benchShardCounts {
		pool := tenant.PoolConfig{Cores: benchShardCores, Policy: benchShardPolicy,
			MigrationPenalty: benchPenalty, Shards: shards}
		stats, records, err := measureReplay(shardProfiles, pool)
		if err != nil {
			return err
		}
		rep.Sharded.RecordsPerReplay = records
		row := benchShardRow{Shards: shards, Stats: stats, SpeedupX: 1}
		if len(rep.Sharded.Rows) > 0 {
			row.SpeedupX = stats.RecordsPerSec / rep.Sharded.Rows[0].Stats.RecordsPerSec
		}
		rep.Sharded.Rows = append(rep.Sharded.Rows, row)
	}

	rep.Streaming, err = measureStreaming(profiles)
	if err != nil {
		return err
	}

	fmt.Fprintf(s.out, "Replay benchmark: %d tenants, %d cores, %d records/replay, best of %d\n",
		benchTenants, benchCores, rep.Suite.RecordsPerReplay, benchReps)
	tb := metrics.NewTable("policy", "Mrec/s", "ns/record", "allocs")
	for _, row := range rep.Policies {
		tb.AddRow(row.Policy,
			fmt.Sprintf("%.1f", row.Batched.RecordsPerSec/1e6),
			fmt.Sprintf("%.1f", row.Batched.NsPerRecord),
			fmt.Sprintf("%.0f", row.Batched.AllocsPerReplay))
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintf(s.out, "headline: %.1f Mrec/s\n\n", rep.Headline.BatchedRecordsPerSec/1e6)

	fmt.Fprintf(s.out, "Sharded replay benchmark: %d tenants, %d cores, %s, %d records/replay, best of %d\n",
		benchShardTenants, benchShardCores, benchShardPolicy, rep.Sharded.RecordsPerReplay, benchReps)
	st := metrics.NewTable("shards", "Mrec/s", "speedup-vs-1")
	for _, row := range rep.Sharded.Rows {
		st.AddRow(fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.1f", row.Stats.RecordsPerSec/1e6),
			fmt.Sprintf("%.2fx", row.SpeedupX))
	}
	fmt.Fprint(s.out, st.String())
	fmt.Fprintln(s.out)

	fmt.Fprintf(s.out, "Streaming replay benchmark: %d tenants x %d generated steps, %d cores, suite encodes at %.2f B/step\n",
		benchStreamTenants, benchStreamSteps, benchStreamCores, rep.Streaming.EncodedBytesPerStep)
	wt := metrics.NewTable("window", "Mrec/s", "peak-heap-KiB")
	for _, row := range rep.Streaming.Rows {
		wt.AddRow(fmt.Sprintf("%d", row.WindowSteps),
			fmt.Sprintf("%.1f", row.RecordsPerSec/1e6),
			fmt.Sprintf("%.0f", float64(row.PeakHeapBytes)/1024))
	}
	fmt.Fprint(s.out, wt.String())
	fmt.Fprintln(s.out)

	if jsonPath == "" && diffSchemaPath == "" {
		return nil
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, blob, 0o644); err != nil {
			return err
		}
	}
	if diffSchemaPath != "" {
		if err := diffReportSchema(blob, diffSchemaPath); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "schema matches committed %s\n", diffSchemaPath)
	}
	return nil
}

// measureStreaming builds the streaming section: a pair of generator-
// backed synthetic tenants replayed at each decoded-window size. The
// heap figure is measured cold — a GC first empties the arena sync.Pool,
// then the collector is paused so the replay's live growth (arena +
// window ring + result) is read deterministically; the throughput reps
// then run warm, like every other cell. suite supplies the measured
// encoding density of real profiled timelines.
func measureStreaming(suite []*tenant.Profile) (benchStreamingSection, error) {
	sec := benchStreamingSection{
		Steps: benchStreamSteps, Tenants: benchStreamTenants,
		Cores: benchStreamCores, Reps: benchReps,
	}
	for _, p := range suite {
		sec.SuiteEncodedBytes += uint64(p.TimelineBytes())
		sec.SuiteSteps += uint64(p.Steps())
	}
	if sec.SuiteSteps > 0 {
		sec.EncodedBytesPerStep = float64(sec.SuiteEncodedBytes) / float64(sec.SuiteSteps)
	}

	profiles := make([]*tenant.Profile, benchStreamTenants)
	for i := range profiles {
		phase := uint64(i) * 17
		gen := func(k int) tenant.SyntheticStep {
			if k%4096 == 4095 {
				return tenant.SyntheticStep{Cycle: uint64(k)*40 + phase, Drain: true}
			}
			return tenant.SyntheticStep{Cycle: uint64(k)*40 + phase, Bits: 64 + uint64(k%61), Cost: 18 + uint64(k%7)}
		}
		p, err := tenant.NewSyntheticProfile(fmt.Sprintf("stream-%d", i), benchStreamSteps, 5000, gen)
		if err != nil {
			return sec, err
		}
		profiles[i] = p
	}

	for _, window := range benchStreamWindows {
		pool := tenant.PoolConfig{Cores: benchStreamCores, Policy: tenant.PolicyLeastLag, StepWindow: window}

		// Empty the arena pool so every window measures a cold replay: the
		// first collection only moves pooled arenas to the victim cache,
		// which a later Get may or may not reach depending on the P it runs
		// on.
		runtime.GC()
		runtime.GC()
		gcPct := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := tenant.ReplayPool(context.Background(), profiles, pool)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gcPct)
		if err != nil {
			return sec, err
		}
		var records uint64
		for _, tr := range res.Tenants {
			records += tr.Records
		}

		var best time.Duration
		for r := 0; r < benchReps; r++ {
			start := time.Now()
			if _, err := tenant.ReplayPool(context.Background(), profiles, pool); err != nil {
				return sec, err
			}
			if d := time.Since(start); r == 0 || d < best {
				best = d
			}
		}
		sec.Rows = append(sec.Rows, benchStreamRow{
			WindowSteps:   window,
			NsPerReplay:   float64(best.Nanoseconds()),
			RecordsPerSec: float64(records) / best.Seconds(),
			PeakHeapBytes: after.HeapAlloc - before.HeapAlloc,
		})
	}
	return sec, nil
}

// diffReportSchema compares the fresh report's JSON key-path set against
// the committed trajectory file's. Values are expected to differ run to
// run (they are measurements); the key paths are the contract.
func diffReportSchema(fresh []byte, committedPath string) error {
	committed, err := os.ReadFile(committedPath)
	if err != nil {
		return fmt.Errorf("bench schema diff: %w", err)
	}
	var a, b any
	if err := json.Unmarshal(fresh, &a); err != nil {
		return fmt.Errorf("bench schema diff: fresh report: %w", err)
	}
	if err := json.Unmarshal(committed, &b); err != nil {
		return fmt.Errorf("bench schema diff: %s: %w", committedPath, err)
	}
	got, want := map[string]bool{}, map[string]bool{}
	jsonKeyPaths(a, "", got)
	jsonKeyPaths(b, "", want)
	var missing, extra []string
	for p := range want {
		if !got[p] {
			missing = append(missing, p)
		}
	}
	for p := range got {
		if !want[p] {
			extra = append(extra, p)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("bench schema diff against %s: missing key paths %v, unexpected key paths %v — regenerate and commit the trajectory file if the schema change is intended",
		committedPath, missing, extra)
}

// jsonKeyPaths collects every object key path in a decoded JSON value;
// array elements share one "[]" segment, so row counts do not affect the
// schema.
func jsonKeyPaths(v any, prefix string, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, val := range t {
			p := prefix + "." + k
			out[p] = true
			jsonKeyPaths(val, p, out)
		}
	case []any:
		for _, val := range t {
			jsonKeyPaths(val, prefix+"[]", out)
		}
	}
}

// benchProfiles builds the pinned n-tenant suite's profiles once; replays
// reuse them (profiles are immutable), so profiling cost stays out of
// every measurement.
func benchProfiles(n int) ([]*tenant.Profile, error) {
	eng := tenant.NewEngine(0, nil)
	set, err := tenant.FromSuite(n, workloads.Config{Scale: benchScale}, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	profiles := make([]*tenant.Profile, len(set))
	for i, t := range set {
		p, err := eng.Profile(context.Background(), t)
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	return profiles, nil
}

// measureReplay times one pool cell through tenant.ReplayPool (sharded
// when the pool asks for shards): an untimed warm-up replay (fills the
// arena pool and factor memo, and supplies the record count), then
// benchReps timed replays keeping the fastest. Allocation
// figures are runtime.MemStats deltas over the timed replays, averaged —
// the command-line analogue of testing.B's ReportAllocs.
func measureReplay(profiles []*tenant.Profile, pool tenant.PoolConfig) (benchDispatchStats, uint64, error) {
	res, err := tenant.ReplayPool(context.Background(), profiles, pool)
	if err != nil {
		return benchDispatchStats{}, 0, err
	}
	var records uint64
	for _, tr := range res.Tenants {
		records += tr.Records
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var best time.Duration
	for rep := 0; rep < benchReps; rep++ {
		start := time.Now()
		if _, err := tenant.ReplayPool(context.Background(), profiles, pool); err != nil {
			return benchDispatchStats{}, 0, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&after)

	ns := float64(best.Nanoseconds())
	return benchDispatchStats{
		NsPerReplay:     ns,
		NsPerRecord:     ns / float64(records),
		RecordsPerSec:   float64(records) / best.Seconds(),
		AllocsPerReplay: float64(after.Mallocs-before.Mallocs) / benchReps,
		BytesPerReplay:  float64(after.TotalAlloc-before.TotalAlloc) / benchReps,
	}, records, nil
}
