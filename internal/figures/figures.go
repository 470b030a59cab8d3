// Package figures regenerates every table and figure of the paper's
// evaluation (the experiment index of DESIGN.md §4), plus the
// reproduction's own multi-tenant additions: the contention figure
// (slowdown vs pool size), the scheduler-comparison figure (all
// registered policies, SchedSweep), the core-affinity and churn figures
// and the admission-control plan (AdmissionPlan). Each paper generator
// runs the relevant benchmarks through the three system modes and
// returns structured rows. The multi-tenant sweeps build a list of pool
// shapes and return the replayed cells themselves (*tenant.PoolResult,
// the lba-runner/v1 cell), and the admission sweeps return
// tenant.AdmissionPoint. cmd/lbabench renders both as paper-style text
// and bench_test.go wraps them as Go benchmarks.
package figures

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the per-benchmark dynamic instruction target. The paper's
	// runs average 209M instructions; defaults here are sized so the whole
	// suite regenerates in seconds while staying past cache warm-up (the
	// slowdown ratios are scale-invariant; see TestScaleInvariance).
	Scale int
	// Seed drives workload generation.
	Seed uint64
	// Threads for the multithreaded pair.
	Threads int
	// Config overrides the system design point (zero value = paper's).
	Config *core.Config
	// Runner executes the experiment matrix. nil means a private serial
	// engine per call; sharing one engine across generators shares their
	// memoized baselines, and a multi-worker engine runs each matrix
	// concurrently with results identical to the serial path.
	Runner *runner.Engine
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 400_000
	}
	if o.Seed == 0 {
		o.Seed = 0xB5EED
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	return o
}

func (o Options) coreConfig() core.Config {
	if o.Config != nil {
		return *o.Config
	}
	return core.DefaultConfig()
}

// engine returns the engine experiments run on.
func (o Options) engine() *runner.Engine {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.New(1)
}

// workloadConfig is the workload generator config shared by every
// generator, figures and ablations alike. Passing Threads everywhere is
// harmless for the single-threaded ablation benchmarks (their generators
// ignore it) and keeps job hashes uniform so baselines memoize across
// figure panels and ablation sweeps.
func (o Options) workloadConfig() workloads.Config {
	return workloads.Config{Scale: o.Scale, Seed: o.Seed, Threads: o.Threads}
}

// Figure2Row is one benchmark's bar pair in Figure 2: normalized execution
// times of the Valgrind-style baseline (v) and LBA (l).
type Figure2Row struct {
	Benchmark string
	Valgrind  float64 // slowdown vs unmonitored
	LBA       float64 // slowdown vs unmonitored
	Speedup   float64 // Valgrind / LBA (paper: 4-19X)
}

// Figure2Panel regenerates one panel of Figure 2 for the given lifeguard:
// AddrCheck and TaintCheck run the seven single-threaded benchmarks;
// LockSet runs the two multithreaded ones.
func Figure2Panel(lifeguard string, opts Options) ([]Figure2Row, error) {
	opts = opts.withDefaults()
	specs := workloads.SingleThreaded()
	if lifeguard == "LockSet" {
		specs = workloads.MultiThreaded()
	}

	wcfg := opts.workloadConfig()
	ccfg := opts.coreConfig()
	jobs := make([]runner.Job, 0, 3*len(specs))
	for _, spec := range specs {
		jobs = append(jobs,
			runner.Job{Benchmark: spec.Name, Mode: core.ModeUnmonitored, Workload: wcfg, Config: ccfg},
			runner.Job{Benchmark: spec.Name, Mode: core.ModeLBA, Lifeguard: lifeguard, Workload: wcfg, Config: ccfg},
			runner.Job{Benchmark: spec.Name, Mode: core.ModeDBI, Lifeguard: lifeguard, Workload: wcfg, Config: ccfg},
		)
	}
	outs, err := opts.engine().RunMatrix(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}

	var rows []Figure2Row
	for i := 0; i < len(outs); i += 3 {
		base, lba, dbi := outs[i].Result, outs[i+1].Result, outs[i+2].Result
		row := Figure2Row{
			Benchmark: outs[i].Job.Benchmark,
			Valgrind:  dbi.SlowdownVs(base),
			LBA:       lba.SlowdownVs(base),
		}
		if row.LBA > 0 {
			row.Speedup = row.Valgrind / row.LBA
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PanelSummary aggregates a Figure 2 panel the way the paper's text does.
type PanelSummary struct {
	Lifeguard    string
	MeanLBA      float64 // paper: 3.9X / 4.8X / 9.7X
	MeanValgrind float64
	MinValgrind  float64 // paper: 10-85X across panels
	MaxValgrind  float64
	MinSpeedup   float64 // paper: 4-19X
	MaxSpeedup   float64
}

// Summarise reduces a panel to the paper's headline numbers.
func Summarise(lifeguard string, rows []Figure2Row) PanelSummary {
	s := PanelSummary{Lifeguard: lifeguard}
	if len(rows) == 0 {
		return s
	}
	s.MinValgrind, s.MaxValgrind = rows[0].Valgrind, rows[0].Valgrind
	s.MinSpeedup, s.MaxSpeedup = rows[0].Speedup, rows[0].Speedup
	for _, r := range rows {
		s.MeanLBA += r.LBA
		s.MeanValgrind += r.Valgrind
		if r.Valgrind < s.MinValgrind {
			s.MinValgrind = r.Valgrind
		}
		if r.Valgrind > s.MaxValgrind {
			s.MaxValgrind = r.Valgrind
		}
		if r.Speedup < s.MinSpeedup {
			s.MinSpeedup = r.Speedup
		}
		if r.Speedup > s.MaxSpeedup {
			s.MaxSpeedup = r.Speedup
		}
	}
	s.MeanLBA /= float64(len(rows))
	s.MeanValgrind /= float64(len(rows))
	return s
}

// CharacterisationRow is one line of the benchmark-characteristics table
// (§3: instruction counts and the 51%-memory-references figure).
type CharacterisationRow struct {
	Benchmark      string
	Instructions   uint64
	MemRefFraction float64
	CPI            float64
	Threads        int
}

// Characterisation regenerates the benchmark statistics table.
func Characterisation(opts Options) ([]CharacterisationRow, error) {
	opts = opts.withDefaults()
	specs := workloads.All()
	jobs := make([]runner.Job, 0, len(specs))
	for _, spec := range specs {
		jobs = append(jobs, runner.Job{
			Benchmark: spec.Name, Mode: core.ModeUnmonitored,
			Workload: opts.workloadConfig(), Config: opts.coreConfig(),
		})
	}
	outs, err := opts.engine().RunMatrix(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}

	var rows []CharacterisationRow
	for i, spec := range specs {
		res := outs[i].Result
		threads := 1
		if spec.MultiThreaded {
			threads = opts.Threads
		}
		rows = append(rows, CharacterisationRow{
			Benchmark:      spec.Name,
			Instructions:   res.Instructions,
			MemRefFraction: res.MemRefFraction,
			CPI:            res.CPI(),
			Threads:        threads,
		})
	}
	return rows, nil
}

// CompressionSummary reduces the compression table to its headline pair:
// suite-mean and worst bytes/record. Both evaluation front-ends (lbabench
// -json and the bench harness) report through this one aggregation.
func CompressionSummary(rows []CompressionRow) (mean, worst float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		mean += r.BytesPerRecord
		if r.BytesPerRecord > worst {
			worst = r.BytesPerRecord
		}
	}
	return mean / float64(len(rows)), worst
}

// WorstDrainShare returns the syscall-stall table's headline number: the
// largest fraction of application cycles lost to containment drains.
func WorstDrainShare(rows []StallRow) float64 {
	var worst float64
	for _, r := range rows {
		if r.DrainShare > worst {
			worst = r.DrainShare
		}
	}
	return worst
}

// CompressionRow is one line of the log-compression table (§2: "less than
// one byte per instruction").
type CompressionRow struct {
	Benchmark      string
	Records        uint64
	BytesPerRecord float64
	Ratio          float64 // raw (32 B) / compressed
}

// Compression measures VPC compression across the suite by running the
// full LBA pipeline (AddrCheck attached, since a lifeguard must drive
// consumption) and reading the transport statistics.
func Compression(opts Options) ([]CompressionRow, error) {
	opts = opts.withDefaults()
	specs := workloads.All()
	jobs := make([]runner.Job, 0, len(specs))
	for _, spec := range specs {
		lifeguard := "AddrCheck"
		if spec.MultiThreaded {
			lifeguard = "LockSet"
		}
		jobs = append(jobs, runner.Job{
			Benchmark: spec.Name, Mode: core.ModeLBA, Lifeguard: lifeguard,
			Workload: opts.workloadConfig(), Config: opts.coreConfig(),
		})
	}
	outs, err := opts.engine().RunMatrix(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}

	var rows []CompressionRow
	for _, out := range outs {
		res := out.Result
		row := CompressionRow{
			Benchmark:      out.Job.Benchmark,
			Records:        res.Records,
			BytesPerRecord: res.BytesPerRecord,
		}
		if res.BytesPerRecord > 0 {
			row.Ratio = 32 / res.BytesPerRecord
		}
		rows = append(rows, row)
	}
	return rows, nil
}
