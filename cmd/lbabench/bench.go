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
	// The reps run in rounds over every cell (measureCells), so a burst
	// of host noise costs each cell one rep instead of a whole cell its
	// best. At 3 reps of one cell in a row, two runs of one binary read
	// the streaming row at 23.7 and 15.0 Mrec/s on a 2-vCPU VM.
	benchReps = 15
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
// measured heap growth is the replay's own footprint) replayed through
// the fixed tenant.DefaultStepWindow, reporting throughput and live-heap
// growth. Two tenants on two cores keep the merge and scheduler real
// while the timeline dominates the work.
const (
	benchStreamSteps   = 2_000_000
	benchStreamTenants = 2
	benchStreamCores   = 2
)

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

// benchStreamRow is the streaming section's one measurement, at the
// decode window it echoes (a one-row array keeps the report's schema).
// PeakHeapBytes is the replay's live-heap growth measured cold (GC run
// first, then disabled): the arena, the window ring and the result — the
// number that stays flat as timelines grow (see
// TestSyntheticProfileHeapBounded).
type benchStreamRow struct {
	WindowSteps   int     `json:"window_steps"`
	NsPerReplay   float64 `json:"ns_per_replay"`
	RecordsPerSec float64 `json:"records_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
}

// benchStreamingSection is the bounded-window replay trajectory:
// throughput and peak heap over a synthetic tenant pair,
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
	shardProfiles, err := benchProfiles(benchShardTenants)
	if err != nil {
		return err
	}
	streamProfiles, err := streamingProfiles()
	if err != nil {
		return err
	}
	rep := benchReport{
		Schema: benchReplaySchema,
		Suite: benchSuiteDesc{Tenants: benchTenants, Scale: benchScale, Cores: benchCores,
			MigrationPenalty: benchPenalty, Reps: benchReps},
		Sharded: benchShardedSection{
			Tenants: benchShardTenants, Scale: benchScale, Cores: benchShardCores,
			MigrationPenalty: benchPenalty, Policy: benchShardPolicy, Reps: benchReps,
		},
	}
	streamCell := &benchCell{profiles: streamProfiles,
		pool: tenant.PoolConfig{Cores: benchStreamCores, Policy: tenant.PolicyLeastLag}}
	// The streaming heap is read cold, before any timed replay.
	rep.Streaming, err = measureStreamingHeap(profiles, streamCell)
	if err != nil {
		return err
	}

	var policyCells, shardCells []*benchCell
	for _, policy := range tenant.Policies() {
		policyCells = append(policyCells, &benchCell{profiles: profiles,
			pool: tenant.PoolConfig{Cores: benchCores, Policy: policy, MigrationPenalty: benchPenalty}})
	}
	for _, shards := range benchShardCounts {
		shardCells = append(shardCells, &benchCell{profiles: shardProfiles,
			pool: tenant.PoolConfig{Cores: benchShardCores, Policy: benchShardPolicy,
				MigrationPenalty: benchPenalty, Shards: shards}})
	}
	cells := append(append(append([]*benchCell{}, policyCells...), shardCells...), streamCell)
	if err := measureCells(cells); err != nil {
		return err
	}

	var batchedTotal time.Duration
	for i, c := range policyCells {
		rep.Suite.RecordsPerReplay = c.records
		batchedTotal += c.best
		rep.Policies = append(rep.Policies, benchPolicyRow{Policy: tenant.Policies()[i], Batched: c.stats()})
	}
	totalRecords := float64(rep.Suite.RecordsPerReplay) * float64(len(rep.Policies))
	rep.Headline = benchHeadline{BatchedRecordsPerSec: totalRecords / batchedTotal.Seconds()}

	for i, c := range shardCells {
		rep.Sharded.RecordsPerReplay = c.records
		row := benchShardRow{Shards: benchShardCounts[i], Stats: c.stats(), SpeedupX: 1}
		if len(rep.Sharded.Rows) > 0 {
			row.SpeedupX = row.Stats.RecordsPerSec / rep.Sharded.Rows[0].Stats.RecordsPerSec
		}
		rep.Sharded.Rows = append(rep.Sharded.Rows, row)
	}

	rep.Streaming.Rows[0].NsPerReplay = float64(streamCell.best.Nanoseconds())
	rep.Streaming.Rows[0].RecordsPerSec = float64(streamCell.records) / streamCell.best.Seconds()

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

// streamingProfiles builds the streaming section's tenants: a pair of
// generator-backed synthetic timelines replayed through the default
// window.
func streamingProfiles() ([]*tenant.Profile, error) {
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
			return nil, err
		}
		profiles[i] = p
	}
	return profiles, nil
}

// measureStreamingHeap builds the streaming section from its cell, all
// but the timing, which measureCells fills in. The heap figure is
// measured cold — a GC first empties the arena sync.Pool, then the
// collector is paused so the replay's live growth (arena + window ring +
// result) is read deterministically. suite supplies the measured
// encoding density of real profiled timelines.
func measureStreamingHeap(suite []*tenant.Profile, cell *benchCell) (benchStreamingSection, error) {
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

	// Empty the arena pool so the replay is measured cold: the first
	// collection only moves pooled arenas to the victim cache, which a
	// later Get may or may not reach depending on the P it runs on.
	runtime.GC()
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tenant.ReplayPool(context.Background(), cell.profiles, cell.pool)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gcPct)
	if err != nil {
		return sec, err
	}
	sec.Rows = []benchStreamRow{{
		WindowSteps:   tenant.DefaultStepWindow,
		PeakHeapBytes: after.HeapAlloc - before.HeapAlloc,
	}}
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

// benchCell is one timed pool cell of the report: its inputs, and what
// measureCells measured of them.
type benchCell struct {
	profiles []*tenant.Profile
	pool     tenant.PoolConfig

	records         uint64        // records one replay serves
	best            time.Duration // fastest timed replay
	mallocs, bytesN uint64        // heap allocations over the timed replays
}

// measureCells times every cell through tenant.ReplayPool (sharded when
// the pool asks for shards): an untimed warm-up replay per cell (fills
// the arena pool and factor memo, and supplies the record count), then
// benchReps rounds, each replaying every cell once, keeping each cell's
// fastest replay. Allocation figures are runtime.MemStats deltas around
// each timed replay, averaged — the command-line analogue of
// testing.B's ReportAllocs.
func measureCells(cells []*benchCell) error {
	for _, c := range cells {
		res, err := tenant.ReplayPool(context.Background(), c.profiles, c.pool)
		if err != nil {
			return err
		}
		for _, tr := range res.Tenants {
			c.records += tr.Records
		}
	}
	var before, after runtime.MemStats
	for rep := 0; rep < benchReps; rep++ {
		for _, c := range cells {
			runtime.ReadMemStats(&before)
			start := time.Now()
			if _, err := tenant.ReplayPool(context.Background(), c.profiles, c.pool); err != nil {
				return err
			}
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if rep == 0 || d < c.best {
				c.best = d
			}
			c.mallocs += after.Mallocs - before.Mallocs
			c.bytesN += after.TotalAlloc - before.TotalAlloc
		}
	}
	return nil
}

// stats reports the cell's measurement in the report's stat fields.
func (c *benchCell) stats() benchDispatchStats {
	ns := float64(c.best.Nanoseconds())
	return benchDispatchStats{
		NsPerReplay:     ns,
		NsPerRecord:     ns / float64(c.records),
		RecordsPerSec:   float64(c.records) / c.best.Seconds(),
		AllocsPerReplay: float64(c.mallocs) / benchReps,
		BytesPerReplay:  float64(c.bytesN) / benchReps,
	}
}
