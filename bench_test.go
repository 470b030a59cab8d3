// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (DESIGN.md §4 maps each benchmark function to its
// experiment id). Run with:
//
//	go test -bench=. -benchmem
//
// Each Figure/Table benchmark executes the full experiment per iteration
// and reports the headline quantities as custom metrics, so `-bench` output
// doubles as the reproduction record. Absolute wall times are simulator
// throughput, not the paper's numbers; the custom metrics (slowdowns,
// bytes/record) are the reproduced results.
package repro

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/runner"
	"repro/internal/vpc"
	"repro/internal/workloads"
)

// benchScale is the per-run dynamic instruction count for the figure
// benchmarks: large enough to sit in steady state, small enough that the
// full harness finishes in minutes.
const benchScale = 400_000

// benchReport collects every simulation the figure benchmarks execute,
// deduplicated by job key, plus the headline metrics they report. When
// BENCH_JSON names a file, TestMain writes the merged runner report there
// so CI can upload it as a trajectory artifact.
var benchReport = struct {
	sync.Mutex
	rows         map[string]runner.Row
	metrics      map[string]float64
	hits, misses uint64
}{rows: map[string]runner.Row{}, metrics: map[string]float64{}}

// recordEngine folds one engine's executed simulations into the report.
func recordEngine(eng *runner.Engine) {
	rep := eng.Report()
	benchReport.Lock()
	defer benchReport.Unlock()
	for _, row := range rep.Rows {
		benchReport.rows[row.Key] = row
	}
	benchReport.hits += rep.CacheHits
	benchReport.misses += rep.CacheMisses
}

// recordMetric stores one headline number alongside b.ReportMetric.
func recordMetric(b *testing.B, name string, v float64, unit string) {
	b.ReportMetric(v, unit)
	benchReport.Lock()
	benchReport.metrics[name] = v
	benchReport.Unlock()
}

// TestMain writes the merged BENCH_JSON artifact after the benchmarks run.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" && code == 0 {
		if err := writeBenchJSON(path); err != nil {
			os.Stderr.WriteString("bench: " + err.Error() + "\n")
			code = 1
		}
	}
	os.Exit(code)
}

func writeBenchJSON(path string) error {
	benchReport.Lock()
	rows := make([]runner.Row, 0, len(benchReport.rows))
	for _, row := range benchReport.rows {
		rows = append(rows, row)
	}
	mets := make(map[string]float64, len(benchReport.metrics))
	for k, v := range benchReport.metrics {
		mets[k] = v
	}
	// Cache counters are summed across every per-iteration engine;
	// Workers stays zero (omitted) since no single pool width applies.
	rep := &runner.Report{
		Schema:      runner.Schema,
		CacheHits:   benchReport.hits,
		CacheMisses: benchReport.misses,
		Rows:        rows,
		Metrics:     mets,
	}
	benchReport.Unlock()

	runner.SortRows(rep.Rows)
	return runner.WriteJSONFile(path, rep)
}

// benchEngine returns a fresh engine per iteration (memoization within an
// iteration is part of the measured harness; across iterations it would
// turn the benchmark into a cache-lookup loop).
func benchEngine() *runner.Engine { return runner.New(0) }

// benchOpts returns fresh experiment options per iteration.
func benchOpts(eng *runner.Engine) figures.Options {
	return figures.Options{Scale: benchScale, Runner: eng}
}

// reportPanel converts a Figure 2 panel into benchmark metrics.
func reportPanel(b *testing.B, lifeguard string) {
	b.Helper()
	var summary figures.PanelSummary
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.Figure2Panel(lifeguard, benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		summary = figures.Summarise(lifeguard, rows)
		recordEngine(eng)
	}
	recordMetric(b, "fig2_"+lifeguard+"_mean_lba_x", summary.MeanLBA, "lba-slowdown-X")
	recordMetric(b, "fig2_"+lifeguard+"_mean_valgrind_x", summary.MeanValgrind, "valgrind-slowdown-X")
	b.ReportMetric(summary.MinSpeedup, "min-speedup-x")
	b.ReportMetric(summary.MaxSpeedup, "max-speedup-x")
}

// BenchmarkFigure2aAddrCheck regenerates Figure 2(a): AddrCheck on the
// seven single-threaded benchmarks. Paper: mean LBA slowdown 3.9X.
func BenchmarkFigure2aAddrCheck(b *testing.B) { reportPanel(b, "AddrCheck") }

// BenchmarkFigure2bTaintCheck regenerates Figure 2(b): TaintCheck. Paper:
// mean LBA slowdown 4.8X.
func BenchmarkFigure2bTaintCheck(b *testing.B) { reportPanel(b, "TaintCheck") }

// BenchmarkFigure2cLockSet regenerates Figure 2(c): LockSet on water and
// zchaff. Paper: mean LBA slowdown 9.7X.
func BenchmarkFigure2cLockSet(b *testing.B) { reportPanel(b, "LockSet") }

// BenchmarkTableCharacteristics regenerates the benchmark-characteristics
// statistics (§3: 51% memory references on average).
func BenchmarkTableCharacteristics(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.Characterisation(benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		var fracs []float64
		for _, r := range rows {
			fracs = append(fracs, r.MemRefFraction)
		}
		avg = metrics.Mean(fracs)
		recordEngine(eng)
	}
	recordMetric(b, "chars_mean_mem_ref_pct", 100*avg, "mem-ref-%")
}

// BenchmarkTableCompression regenerates the VPC compression table (§2:
// < 1 byte/instruction).
func BenchmarkTableCompression(b *testing.B) {
	var worst, mean float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.Compression(figures.Options{Scale: 700_000, Runner: eng})
		if err != nil {
			b.Fatal(err)
		}
		mean, worst = figures.CompressionSummary(rows)
		recordEngine(eng)
	}
	recordMetric(b, "compress_mean_bytes_per_record", mean, "mean-B/record")
	recordMetric(b, "compress_worst_bytes_per_record", worst, "worst-B/record")
}

// BenchmarkTableAverages regenerates the §3 headline text: per-lifeguard
// mean slowdowns and the Valgrind envelope.
func BenchmarkTableAverages(b *testing.B) {
	var addr, taint, lock float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		for _, lifeguard := range []string{"AddrCheck", "TaintCheck", "LockSet"} {
			rows, err := figures.Figure2Panel(lifeguard, benchOpts(eng))
			if err != nil {
				b.Fatal(err)
			}
			s := figures.Summarise(lifeguard, rows)
			switch lifeguard {
			case "AddrCheck":
				addr = s.MeanLBA
			case "TaintCheck":
				taint = s.MeanLBA
			case "LockSet":
				lock = s.MeanLBA
			}
		}
		recordEngine(eng)
	}
	recordMetric(b, "fig2_AddrCheck_mean_lba_x", addr, "addrcheck-X")
	recordMetric(b, "fig2_TaintCheck_mean_lba_x", taint, "taintcheck-X")
	recordMetric(b, "fig2_LockSet_mean_lba_x", lock, "lockset-X")
}

// BenchmarkAblationBufferSize sweeps the log-buffer capacity (experiment
// A-buffer: decoupling vs backpressure).
func BenchmarkAblationBufferSize(b *testing.B) {
	sizes := []uint64{1 << 10, 64 << 10, 1 << 20}
	var small, large float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.BufferSweep("gzip", sizes, benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		small, large = rows[0].Slowdown, rows[len(rows)-1].Slowdown
		recordEngine(eng)
	}
	recordMetric(b, fmt.Sprintf("buffer_slowdown_%db_x", sizes[0]), small, "slowdown-1KiB-X")
	recordMetric(b, fmt.Sprintf("buffer_slowdown_%db_x", sizes[len(sizes)-1]), large, "slowdown-1MiB-X")
}

// BenchmarkAblationCompression toggles the VPC engine (A-compress).
func BenchmarkAblationCompression(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.CompressionAblation("gzip", benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(rows[1].LogBytes) / float64(rows[0].LogBytes)
		recordEngine(eng)
	}
	recordMetric(b, "vpc_log_volume_saving_x", ratio, "log-volume-saving-x")
}

// BenchmarkAblationFiltering measures heap-only address-range filtering
// (A-filter, §3 future work).
func BenchmarkAblationFiltering(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.FilterAblation("mcf", benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		before, after = rows[0].Slowdown, rows[1].Slowdown
		recordEngine(eng)
	}
	recordMetric(b, "filter_unfiltered_x", before, "unfiltered-X")
	recordMetric(b, "filter_filtered_x", after, "filtered-X")
}

// BenchmarkAblationParallelLifeguard measures the k-core lifeguard
// (A-parallel, §3 future work).
func BenchmarkAblationParallelLifeguard(b *testing.B) {
	var one, four float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.ParallelSweep("tidy", []int{1, 4}, benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		one, four = rows[0].Slowdown, rows[1].Slowdown
		recordEngine(eng)
	}
	recordMetric(b, "parallel_lifeguard_1core_x", one, "1-core-X")
	recordMetric(b, "parallel_lifeguard_4core_x", four, "4-cores-X")
}

// BenchmarkAblationSyscallStall measures the containment rule's cost
// (A-stall, §2).
func BenchmarkAblationSyscallStall(b *testing.B) {
	var maxShare float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.SyscallStallTable(benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		maxShare = figures.WorstDrainShare(rows)
		recordEngine(eng)
	}
	recordMetric(b, "stall_worst_drain_pct", 100*maxShare, "worst-drain-%")
}

// --- Substrate micro-benchmarks -----------------------------------------

// BenchmarkVPCCompress measures compressor throughput on a hot-loop trace.
func BenchmarkVPCCompress(b *testing.B) {
	rec := event.Record{
		Type: event.TLoad, PC: isa.PCForIndex(10),
		In1: 1, In2: event.OpNone, Out: 2, Size: 8, Addr: 0x2000_0000,
	}
	c := vpc.NewCompressor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Addr += 8
		c.Append(rec)
	}
	b.ReportMetric(c.BytesPerRecord(), "B/record")
}

// BenchmarkCacheAccess measures the cache model's lookup rate.
func BenchmarkCacheAccess(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(1))
	port := h.Port(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Data(uint64(i*64)%(1<<20), 8, i&1 == 0)
	}
}

// BenchmarkLBAPipeline measures end-to-end simulation throughput
// (instructions simulated per wall second) on the gzip workload.
func BenchmarkLBAPipeline(b *testing.B) {
	runPipeline(b, "lba_pipeline", func(p *prog.Program) (*core.Result, error) {
		return core.RunLBA(p, "AddrCheck", core.DefaultConfig())
	})
}

// BenchmarkUnmonitoredPipeline is the baseline simulator throughput.
func BenchmarkUnmonitoredPipeline(b *testing.B) {
	runPipeline(b, "unmonitored_pipeline", func(p *prog.Program) (*core.Result, error) {
		return core.RunUnmonitored(p, core.DefaultConfig())
	})
}

// runPipeline simulates gzip b.N times through run and records the
// allocations per simulated instruction in the bench artifact, beside
// ReportAllocs's allocs/op. The profiling hot path keeps it near zero.
func runPipeline(b *testing.B, name string, run func(*prog.Program) (*core.Result, error)) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	var instrs uint64
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		p := workloads.BuildGzip(workloads.Config{Scale: benchScale})
		res, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Instructions))
		instrs += res.Instructions
	}
	runtime.ReadMemStats(&after)
	recordMetric(b, name+"_allocs_per_instr", float64(after.Mallocs-before.Mallocs)/float64(instrs), "allocs/instr")
}

// BenchmarkAblationDispatchPipelining measures the nlba early-index
// optimisation (§2).
func BenchmarkAblationDispatchPipelining(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		rows, err := figures.PipelineAblation("bc", benchOpts(eng))
		if err != nil {
			b.Fatal(err)
		}
		on, off = rows[0].Slowdown, rows[1].Slowdown
		recordEngine(eng)
	}
	recordMetric(b, "dispatch_pipelined_x", on, "pipelined-X")
	recordMetric(b, "dispatch_serialised_x", off, "serialised-X")
}
