// Command lbabench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) and prints them in
// paper-style text form.
//
// Usage:
//
//	lbabench                      # everything
//	lbabench -fig 2a              # Figure 2(a): AddrCheck
//	lbabench -fig 2b              # Figure 2(b): TaintCheck
//	lbabench -fig 2c              # Figure 2(c): LockSet
//	lbabench -fig contention      # multi-tenant slowdown vs pool size
//	lbabench -fig sched           # all six pool schedulers + admission control
//	lbabench -fig affinity        # affinity vs least-lag vs wfq across migration penalties
//	lbabench -fig churn           # admissible tenants vs churn rate (bisection admission)
//	lbabench -fig churn -seeds 5  # ...with repeated-seed confidence bands
//	lbabench -table chars         # benchmark characteristics (§3)
//	lbabench -table compress      # VPC compression (§2)
//	lbabench -table avg           # headline averages (§3)
//	lbabench -ablation buffer     # log-buffer size sweep
//	lbabench -ablation compress   # VPC on/off
//	lbabench -ablation filter     # address-range filtering (§3)
//	lbabench -ablation parallel   # parallel lifeguards (§3)
//	lbabench -ablation stall      # syscall-containment cost (§2)
//	lbabench -ablation pipeline   # nlba dispatch pipelining (§2)
//	lbabench -tenants 6 -pool 4 -sched least-lag  # one multi-tenant cell
//	lbabench -tenants 6 -pool 2 -sched wfq -weights 4,1    # weighted shares
//	lbabench -tenants 6 -pool 2 -sched deadline -deadline 2000
//	lbabench -tenants 6 -pool 2 -sched affinity -migration 1000  # warmth-aware
//	lbabench -tenants 6 -pool 2 -churn 0.5       # churning cell (staggered arrivals/departures)
//	lbabench -tenants 8 -pool 4 -shards 4        # statically-partitioned pool, shards replayed in parallel
//	lbabench -n 2000000           # instruction scale per run
//	lbabench -workers 8           # experiment-matrix worker pool width
//	lbabench -json out.json       # structured results for trajectory tracking
//	lbabench -bench replay -json BENCH_replay.json  # replay throughput trajectory
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/tenant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbabench:", err)
		os.Exit(1)
	}
}

// session carries one invocation's state: where text output goes, the
// shared experiment engine, and the accumulating JSON report content.
// Keeping it instantiable (rather than package globals) is what lets the
// golden determinism test run the command in-process repeatedly.
type session struct {
	out         io.Writer
	opts        figures.Options
	eng         *runner.Engine
	metrics     map[string]float64
	tenantCells []runner.TenantCell
	admission   []runner.AdmissionPoint
	churnPoints []runner.ChurnPoint
	// basePool carries the -pool/-sched/-weights/-deadline inputs shared
	// by the single-cell path, the scheduler figure and the churn figure.
	basePool tenant.PoolConfig
	// churnRate and seeds carry -churn/-seeds: the cell-mode churn layout
	// and the churn figure's repeated-seed replication count.
	churnRate float64
	seeds     int
}

// defaultContentionTenants sizes the contention figure's tenant set when
// -tenants is not given.
const defaultContentionTenants = 6

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbabench", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "", "2a | 2b | 2c | contention | sched | affinity | churn")
		table      = fs.String("table", "", "chars | compress | avg")
		ablation   = fs.String("ablation", "", "buffer | compress | filter | parallel | stall | pipeline")
		scale      = fs.Int("n", 1_000_000, "approximate dynamic instructions per run")
		threads    = fs.Int("threads", 2, "threads for multithreaded benchmarks")
		workers    = fs.Int("workers", 0, "experiment worker pool width (0 = NumCPU, 1 = serial)")
		tenants    = fs.Int("tenants", 0, "multi-tenant cell: number of monitored applications (0 = off)")
		pool       = fs.Int("pool", 4, "multi-tenant cell / sched+affinity figures: shared lifeguard cores")
		sched      = fs.String("sched", tenant.PolicyLeastLag, "multi-tenant scheduler: "+strings.Join(tenant.Policies(), " | "))
		weights    = fs.String("weights", "", "per-tenant WFQ weights, comma-separated, cycled over the tenant set (wfq/priority)")
		deadline   = fs.Uint64("deadline", 0, "per-tenant lag deadline in cycles for the deadline policy (0 = default)")
		migration  = fs.Uint64("migration", 0, "migration penalty in cycles for serving a record on a cold core (0 = model off)")
		churn      = fs.Float64("churn", 0, "tenant churn rate for a single cell: arrival spacing in tenant lifetimes (0 = fixed set; the churn figure sweeps rates itself)")
		shards     = fs.Int("shards", 0, "partition a single cell's pool into K sub-pools replayed in parallel (0/1 = unsharded)")
		seeds      = fs.Int("seeds", 1, "workload-seed replications for the churn figure's admission confidence bands")
		bench      = fs.String("bench", "", "replay — time the production replay path per policy, sharded and streaming (with -json, writes the lba-bench-replay/v2 report)")
		diffSchema = fs.String("diff-schema", "", "with -bench: diff the fresh report's JSON key paths against this committed trajectory file (exits non-zero on drift)")
		jsonPath   = fs.String("json", "", "write structured runner results to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *tenants < 0 {
		return fmt.Errorf("-tenants must be >= 0, got %d", *tenants)
	}
	wts, err := tenant.ParseWeights(*weights)
	if err != nil {
		return err
	}
	// The pool shape must be coherent before any experiment runs.
	basePool := tenant.PoolConfig{Cores: *pool, Policy: *sched, Weights: wts,
		DeadlineCycles: *deadline, MigrationPenalty: *migration, Shards: *shards}
	if err := basePool.Validate(); err != nil {
		return err
	}
	if err := (tenant.Churn{Rate: *churn}).Validate(); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	// The pool flags are consumed by the single-cell path and (except for
	// -sched, which the figure sweeps itself) by the sched and affinity
	// figures; the churn figure plans for one -sched policy but sweeps
	// churn rates itself; the contention figure sweeps its own pool sizes
	// and policies, and the affinity figure sweeps migration penalties.
	// Reject explicit values that would otherwise be dropped silently.
	schedFig := *fig == "sched"
	affinityFig := *fig == "affinity"
	churnFig := *fig == "churn"
	cellMode := *tenants > 0 && *fig != "contention" && !schedFig && !affinityFig && !churnFig
	if *bench != "" && *bench != "replay" {
		return fmt.Errorf("unknown benchmark %q (have replay)", *bench)
	}
	if *diffSchema != "" && *bench == "" {
		return fmt.Errorf("-diff-schema only applies with -bench (it pins the benchmark report's schema)")
	}
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		if conflict != nil {
			return
		}
		// The replay benchmark runs a pinned suite (see cmd/lbabench/
		// bench.go) so its artifacts compare across commits; every sweep
		// and scale flag would be dropped silently, so reject them.
		if *bench != "" && f.Name != "bench" && f.Name != "json" && f.Name != "diff-schema" {
			conflict = fmt.Errorf("-%s does not apply with -bench; the replay benchmark runs the pinned %d-tenant suite", f.Name, benchTenants)
			return
		}
		switch f.Name {
		case "sched":
			if !cellMode && !churnFig {
				conflict = fmt.Errorf("-sched only applies with -tenants N (single multi-tenant cell) or -fig churn; the contention, sched and affinity figures sweep policies themselves")
			}
		case "pool", "weights":
			if !cellMode && !schedFig && !affinityFig && !churnFig {
				conflict = fmt.Errorf("-%s only applies with -tenants N, -fig sched, -fig affinity or -fig churn", f.Name)
			}
		case "deadline":
			// The affinity figure's policies (least-lag, wfq, affinity)
			// never read the deadline, so accepting it there would drop
			// it silently.
			if !cellMode && !schedFig && !churnFig {
				conflict = fmt.Errorf("-deadline only applies with -tenants N, -fig sched or -fig churn")
			}
		case "migration":
			if !cellMode && !schedFig && !churnFig {
				conflict = fmt.Errorf("-migration only applies with -tenants N, -fig sched or -fig churn (the affinity figure sweeps penalties itself)")
			}
		case "churn":
			// The churn figure sweeps rates itself; accepting an explicit
			// rate there would drop it silently.
			if !cellMode {
				conflict = fmt.Errorf("-churn only applies with -tenants N (single multi-tenant cell); the churn figure sweeps rates itself")
			}
		case "shards":
			// The figures' artifacts pin the global (unsharded) replay;
			// sharding is a single-cell knob.
			if !cellMode {
				conflict = fmt.Errorf("-shards only applies with -tenants N (single multi-tenant cell)")
			}
		case "seeds":
			if !churnFig {
				conflict = fmt.Errorf("-seeds only applies with -fig churn (confidence bands for the admission search)")
			}
		}
	})
	if conflict != nil {
		return conflict
	}

	s := &session{
		out:       out,
		eng:       runner.New(*workers),
		metrics:   map[string]float64{},
		basePool:  basePool,
		churnRate: *churn,
		seeds:     *seeds,
	}
	s.opts = figures.Options{Scale: *scale, Threads: *threads, Runner: s.eng}

	if *bench != "" {
		// The benchmark report has its own schema and is written by
		// benchReplay itself; the runner-report JSON path below does not
		// apply.
		return s.benchReplay(*jsonPath, *diffSchema)
	}

	runAll := *fig == "" && *table == "" && *ablation == "" && *tenants == 0
	switch {
	case runAll:
		err = s.everything()
	default:
		if *fig != "" {
			err = s.figure(*fig, *tenants)
		}
		if err == nil && *table != "" {
			err = s.tables(*table)
		}
		if err == nil && *ablation != "" {
			err = s.ablations(*ablation)
		}
		if err == nil && cellMode {
			err = s.tenantCell(*tenants, s.basePool)
		}
	}
	if err == nil && *jsonPath != "" {
		err = s.writeJSON(*jsonPath)
	}
	return err
}

// writeJSON emits every simulation the engine executed plus the collected
// headline metrics, tenant cells and admission points, in deterministic
// order.
func (s *session) writeJSON(path string) error {
	rep := s.eng.Report()
	if len(s.metrics) > 0 {
		rep.Metrics = s.metrics
	}
	rep.TenantCells = s.tenantCells
	rep.Admission = s.admission
	rep.Churn = s.churnPoints
	return runner.WriteJSONFile(path, rep)
}

func (s *session) everything() error {
	for _, f := range []string{"2a", "2b", "2c", "contention", "sched", "affinity", "churn"} {
		if err := s.figure(f, 0); err != nil {
			return err
		}
	}
	for _, t := range []string{"chars", "compress", "avg"} {
		if err := s.tables(t); err != nil {
			return err
		}
	}
	for _, a := range []string{"buffer", "compress", "filter", "parallel", "stall", "pipeline"} {
		if err := s.ablations(a); err != nil {
			return err
		}
	}
	return nil
}

var panelOf = map[string]string{
	"2a": "AddrCheck",
	"2b": "TaintCheck",
	"2c": "LockSet",
}

func (s *session) figure(fig string, tenants int) error {
	if fig == "contention" {
		return s.contention(tenants)
	}
	if fig == "sched" {
		return s.schedFigure(tenants)
	}
	if fig == "affinity" {
		return s.affinityFigure(tenants)
	}
	if fig == "churn" {
		return s.churnFigure(tenants)
	}
	lifeguard, ok := panelOf[fig]
	if !ok {
		return fmt.Errorf("unknown figure %q (have 2a, 2b, 2c, contention, sched, affinity, churn)", fig)
	}
	rows, err := figures.Figure2Panel(lifeguard, s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Figure 2(%s): %s — normalized execution time (1.0 = unmonitored)\n",
		fig[1:], lifeguard)
	tb := metrics.NewTable("benchmark", "valgrind(v)", "lba(l)", "lba-speedup")
	for _, r := range rows {
		tb.AddRow(r.Benchmark,
			fmt.Sprintf("%.1fX", r.Valgrind),
			fmt.Sprintf("%.1fX", r.LBA),
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintln(s.out)
	fmt.Fprint(s.out, figures.RenderFigure2(lifeguard, rows))
	sum := figures.Summarise(lifeguard, rows)
	s.metrics["fig2_"+lifeguard+"_mean_lba_x"] = sum.MeanLBA
	s.metrics["fig2_"+lifeguard+"_mean_valgrind_x"] = sum.MeanValgrind
	fmt.Fprintf(s.out, "mean LBA slowdown: %.1fX   (paper: %s)\n", sum.MeanLBA, paperMean(lifeguard))
	fmt.Fprintf(s.out, "valgrind range: %.1f-%.1fX (paper band: 10-85X); LBA %.1f-%.1fx faster (paper: 4-19x)\n\n",
		sum.MinValgrind, sum.MaxValgrind, sum.MinSpeedup, sum.MaxSpeedup)
	return nil
}

// contention regenerates the multi-tenant figure: aggregate slowdown as a
// shared lifeguard-core pool grows from 1 to 8 cores, per policy.
func (s *session) contention(n int) error {
	if n <= 0 {
		n = defaultContentionTenants
	}
	set, err := figures.TenantSet(n, s.opts)
	if err != nil {
		return err
	}
	rows, results, err := figures.ContentionSweep(set, figures.DefaultPoolSizes(), tenant.BaselinePolicies(), s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Figure: multi-tenant contention — %d tenants sharing 1-8 lifeguard cores\n", n)
	tb := metrics.NewTable("policy", "cores", "mean-slowdown", "max-slowdown", "pool-util")
	for _, r := range rows {
		tb.AddRow(r.Policy,
			fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.2fX", r.MeanSlowdown),
			fmt.Sprintf("%.2fX", r.MaxSlowdown),
			fmt.Sprintf("%.0f%%", 100*r.Utilisation))
		s.metrics[fmt.Sprintf("tenant_%s_%dc_mean_x", r.Policy, r.Cores)] = r.MeanSlowdown
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintln(s.out)
	fmt.Fprint(s.out, figures.RenderContention(rows))
	fmt.Fprintln(s.out)
	for _, r := range results {
		s.tenantCells = append(s.tenantCells, r.Cell())
	}
	return nil
}

// schedFigure regenerates the scheduler-comparison figure — all registered
// policies over the sched pool sizes — and derives admission control for
// the -pool sized pool: the max tenant count each policy serves under the
// default slowdown SLOs.
func (s *session) schedFigure(n int) error {
	if n <= 0 {
		n = defaultContentionTenants
	}
	set, err := figures.TenantSet(n, s.opts)
	if err != nil {
		return err
	}
	rows, results, err := figures.SchedSweep(set, figures.SchedPoolSizes(), s.basePool, s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Figure: pool schedulers — %d tenants under %d policies\n", n, len(tenant.Policies()))
	tb := metrics.NewTable("policy", "cores", "mean-slowdown", "max-slowdown", "lag-p95", "pool-util")
	for _, r := range rows {
		tb.AddRow(r.Policy,
			fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.2fX", r.MeanSlowdown),
			fmt.Sprintf("%.2fX", r.MaxSlowdown),
			fmt.Sprintf("%d", r.WorstLagP95),
			fmt.Sprintf("%.0f%%", 100*r.Utilisation))
		s.metrics[fmt.Sprintf("sched_%s_%dc_mean_x", r.Policy, r.Cores)] = r.MeanSlowdown
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintln(s.out)
	fmt.Fprint(s.out, figures.RenderContention(rows))
	fmt.Fprintln(s.out)
	for _, r := range results {
		s.tenantCells = append(s.tenantCells, r.Cell())
	}

	// Admission control: the planner scans tenant counts up to twice the
	// pool width, which is where every policy has long saturated.
	maxTenants := 2 * s.basePool.Cores
	if maxTenants < 2 {
		maxTenants = 2
	}
	points, err := figures.AdmissionPlan(s.basePool, tenant.Policies(), figures.DefaultAdmissionSLOs(), maxTenants, s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Admission control: max tenants a %d-core pool serves under a contention SLO (scan 1-%d;\ncontention = wall cycles over the tenant's own uncontended monitored run)\n",
		s.basePool.Cores, maxTenants)
	at := metrics.NewTable("policy", "slo", "max-tenants", "contention-at-max")
	for _, p := range points {
		at.AddRow(p.Policy,
			fmt.Sprintf("%.2fX", p.SLO),
			fmt.Sprintf("%d", p.MaxTenants),
			fmt.Sprintf("%.2fX", p.ContentionAtMax))
		s.metrics[fmt.Sprintf("admission_%s_%dc_slo%.2f_max_tenants", p.Policy, p.Cores, p.SLO)] = float64(p.MaxTenants)
		s.admission = append(s.admission, p.Row())
	}
	fmt.Fprint(s.out, at.String())
	fmt.Fprintln(s.out)
	return nil
}

// affinityFigure regenerates the core-affinity figure: affinity vs greedy
// least-lag vs wfq on one pool as the migration penalty (the cost of
// serving a record on a shadow-cache-cold core) sweeps from zero to
// several handler costs. The penalty-0 column is byte-identical to the
// pre-warmth model; migration accounting appears from the first non-zero
// penalty on.
func (s *session) affinityFigure(n int) error {
	if n <= 0 {
		n = defaultContentionTenants
	}
	set, err := figures.TenantSet(n, s.opts)
	if err != nil {
		return err
	}
	rows, results, err := figures.AffinitySweep(set, figures.AffinityPenalties(), s.basePool, s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Figure: core affinity — %d tenants on %d cores as migration penalties grow\n",
		n, s.basePool.Cores)
	tb := metrics.NewTable("policy", "penalty", "mean-slowdown", "max-slowdown", "migrations", "cold-cycles", "pool-util")
	for _, r := range rows {
		tb.AddRow(r.Policy,
			fmt.Sprintf("%d", r.MigrationPenalty),
			fmt.Sprintf("%.2fX", r.MeanSlowdown),
			fmt.Sprintf("%.2fX", r.MaxSlowdown),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%d", r.ColdServeCycles),
			fmt.Sprintf("%.0f%%", 100*r.Utilisation))
		s.metrics[fmt.Sprintf("affinity_%s_p%d_mean_x", r.Policy, r.MigrationPenalty)] = r.MeanSlowdown
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintln(s.out)
	fmt.Fprint(s.out, figures.RenderAffinity(rows))
	fmt.Fprintln(s.out)
	for _, r := range results {
		s.tenantCells = append(s.tenantCells, r.Cell())
	}
	return nil
}

// churnFigure regenerates the churn planning figure: admissible tenants
// vs churn rate for the -pool/-sched pool, each point answered by the
// bisection-based admission search (with -seeds workload-seed
// replications for confidence bands) and paired with the admitted
// population's peak channel concurrency. n bounds the search like the
// sched figure's admission scan (0 = twice the pool width).
func (s *session) churnFigure(n int) error {
	if n <= 0 {
		n = 2 * s.basePool.Cores
		if n < 2 {
			n = 2
		}
	}
	rows, results, err := figures.ChurnSweep(s.basePool, figures.DefaultChurnRates(),
		figures.DefaultAdmissionSLOs(), n, s.seeds, s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Figure: tenant churn — admissible tenants on %d cores (%s) as arrivals spread out (search 1-%d, %d seed(s))\n",
		s.basePool.Cores, rows[0].Policy, n, s.seeds)
	tb := metrics.NewTable("rate", "slo", "max-tenants", "band", "peak-conc", "probes", "search")
	for _, r := range rows {
		search := "bisect"
		if r.Fallback {
			search = "fallback-scan"
		}
		tb.AddRow(fmt.Sprintf("%.2f", r.Rate),
			fmt.Sprintf("%.2fX", r.SLO),
			fmt.Sprintf("%d", r.MaxTenants),
			fmt.Sprintf("%d-%d", r.TenantsLo, r.TenantsHi),
			fmt.Sprintf("%d", r.PeakConcurrency),
			fmt.Sprintf("%d", r.Probes),
			search)
		s.metrics[fmt.Sprintf("churn_%s_r%.2f_slo%.2f_max_tenants", r.Policy, r.Rate, r.SLO)] = float64(r.MaxTenants)
		s.churnPoints = append(s.churnPoints, r.Point(s.basePool.Cores))
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintln(s.out)
	fmt.Fprint(s.out, figures.RenderChurn(rows))
	fmt.Fprintln(s.out)
	for _, r := range results {
		s.tenantCells = append(s.tenantCells, r.Cell())
	}
	return nil
}

// tenantCell runs one multi-tenant pool configuration and prints the
// per-tenant breakdown, optionally under a -churn arrival/departure
// layout.
func (s *session) tenantCell(n int, pool tenant.PoolConfig) error {
	set, err := figures.TenantSet(n, s.opts)
	if err != nil {
		return err
	}
	if set, err = tenant.ApplyChurn(set, tenant.Churn{Rate: s.churnRate}); err != nil {
		return err
	}
	res, err := figures.RunPoolCell(set, pool, s.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "Multi-tenant cell: %d tenants, %d lifeguard cores, %s\n", n, res.Cores, res.Policy)
	if res.Shards > 1 {
		fmt.Fprintf(s.out, "shards: %d statically-partitioned sub-pools, replayed in parallel\n", res.Shards)
	}
	if res.Churned {
		fmt.Fprintf(s.out, "churn rate %.2f: peak concurrency %d of %d tenants\n", s.churnRate, res.PeakConcurrency, n)
	}
	tb := metrics.NewTable("tenant", "lifeguard", "slowdown", "cont-x", "stall-cyc", "drain-cyc", "lag-p95", "violations")
	for _, tr := range res.Tenants {
		tb.AddRow(tr.Name, tr.Lifeguard,
			fmt.Sprintf("%.2fX", tr.Slowdown),
			fmt.Sprintf("%.2fX", tr.ContentionX),
			fmt.Sprintf("%d", tr.StallCycles),
			fmt.Sprintf("%d", tr.DrainCycles),
			fmt.Sprintf("%d", tr.LagP95Cycles),
			fmt.Sprintf("%d", tr.Violations))
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintf(s.out, "mean slowdown %.2fX, max %.2fX (contention %.2fX mean, %.2fX max), pool utilisation %.0f%%\n\n",
		res.MeanSlowdown, res.MaxSlowdown, res.MeanContentionX, res.MaxContentionX, 100*res.Utilisation)
	s.metrics[fmt.Sprintf("tenant_cell_%s_%dc_mean_x", res.Policy, res.Cores)] = res.MeanSlowdown
	s.tenantCells = append(s.tenantCells, res.Cell())
	return nil
}

func paperMean(lifeguard string) string {
	switch lifeguard {
	case "AddrCheck":
		return "3.9X"
	case "TaintCheck":
		return "4.8X"
	case "LockSet":
		return "9.7X"
	}
	return "?"
}

func (s *session) tables(name string) error {
	switch name {
	case "chars":
		rows, err := figures.Characterisation(s.opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, "Benchmark characteristics (paper §3: avg 209M instructions, 51% memory refs)")
		tb := metrics.NewTable("benchmark", "instructions", "mem-refs", "CPI", "threads")
		var sum float64
		for _, r := range rows {
			tb.AddRow(r.Benchmark,
				fmt.Sprintf("%d", r.Instructions),
				fmt.Sprintf("%.1f%%", 100*r.MemRefFraction),
				fmt.Sprintf("%.2f", r.CPI),
				fmt.Sprintf("%d", r.Threads))
			sum += r.MemRefFraction
		}
		fmt.Fprint(s.out, tb.String())
		s.metrics["chars_mean_mem_ref_pct"] = 100 * sum / float64(len(rows))
		fmt.Fprintf(s.out, "suite average mem refs: %.1f%% (paper: 51%%; see EXPERIMENTS.md on the RISC/x86 gap)\n\n",
			100*sum/float64(len(rows)))

	case "compress":
		rows, err := figures.Compression(s.opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, "VPC log compression (paper §2: < 1 byte/instruction)")
		tb := metrics.NewTable("benchmark", "records", "B/record", "ratio")
		for _, r := range rows {
			tb.AddRow(r.Benchmark,
				fmt.Sprintf("%d", r.Records),
				fmt.Sprintf("%.3f", r.BytesPerRecord),
				fmt.Sprintf("%.1fx", r.Ratio))
		}
		mean, worst := figures.CompressionSummary(rows)
		s.metrics["compress_mean_bytes_per_record"] = mean
		s.metrics["compress_worst_bytes_per_record"] = worst
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	case "avg":
		fmt.Fprintln(s.out, "Headline averages (paper §3)")
		tb := metrics.NewTable("lifeguard", "mean-lba", "paper", "valgrind-range", "speedup-range")
		for _, lifeguard := range []string{"AddrCheck", "TaintCheck", "LockSet"} {
			rows, err := figures.Figure2Panel(lifeguard, s.opts)
			if err != nil {
				return err
			}
			sum := figures.Summarise(lifeguard, rows)
			s.metrics["fig2_"+lifeguard+"_mean_lba_x"] = sum.MeanLBA
			s.metrics["fig2_"+lifeguard+"_mean_valgrind_x"] = sum.MeanValgrind
			tb.AddRow(lifeguard,
				fmt.Sprintf("%.1fX", sum.MeanLBA),
				paperMean(lifeguard),
				fmt.Sprintf("%.1f-%.1fX", sum.MinValgrind, sum.MaxValgrind),
				fmt.Sprintf("%.1f-%.1fx", sum.MinSpeedup, sum.MaxSpeedup))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	default:
		return fmt.Errorf("unknown table %q (have chars, compress, avg)", name)
	}
	return nil
}

func (s *session) ablations(name string) error {
	switch name {
	case "buffer":
		sizes := []uint64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
		rows, err := figures.BufferSweep("gzip", sizes, s.opts)
		if err != nil {
			return err
		}
		for _, r := range rows {
			s.metrics[fmt.Sprintf("buffer_slowdown_%db_x", r.CapacityBytes)] = r.Slowdown
		}
		fmt.Fprintln(s.out, "Ablation: log-buffer capacity vs application stalls (gzip, AddrCheck)")
		tb := metrics.NewTable("capacity", "slowdown", "stall-cycles")
		for _, r := range rows {
			tb.AddRow(fmt.Sprintf("%dB", r.CapacityBytes),
				fmt.Sprintf("%.2fX", r.Slowdown),
				fmt.Sprintf("%d", r.StallCycles))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	case "compress":
		rows, err := figures.CompressionAblation("gzip", s.opts)
		if err != nil {
			return err
		}
		if rows[0].LogBytes > 0 {
			s.metrics["vpc_log_volume_saving_x"] = float64(rows[1].LogBytes) / float64(rows[0].LogBytes)
		}
		fmt.Fprintln(s.out, "Ablation: VPC compression on/off (gzip, AddrCheck)")
		tb := metrics.NewTable("compression", "log-bytes", "slowdown", "stall-cycles")
		for _, r := range rows {
			tb.AddRow(fmt.Sprintf("%v", r.Compression),
				fmt.Sprintf("%d", r.LogBytes),
				fmt.Sprintf("%.2fX", r.Slowdown),
				fmt.Sprintf("%d", r.StallCycles))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	case "filter":
		rows, err := figures.FilterAblation("mcf", s.opts)
		if err != nil {
			return err
		}
		s.metrics["filter_unfiltered_x"] = rows[0].Slowdown
		s.metrics["filter_filtered_x"] = rows[1].Slowdown
		fmt.Fprintln(s.out, "Ablation: heap-only address-range filtering (mcf, AddrCheck; paper §3)")
		tb := metrics.NewTable("filtered", "slowdown", "records-dropped", "lifeguard-cycles")
		for _, r := range rows {
			tb.AddRow(fmt.Sprintf("%v", r.Filtered),
				fmt.Sprintf("%.2fX", r.Slowdown),
				fmt.Sprintf("%d", r.Dropped),
				fmt.Sprintf("%d", r.LgCycles))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	case "parallel":
		rows, err := figures.ParallelSweep("tidy", []int{1, 2, 4, 8}, s.opts)
		if err != nil {
			return err
		}
		for _, r := range rows {
			s.metrics[fmt.Sprintf("parallel_lifeguard_%dcore_x", r.Cores)] = r.Slowdown
		}
		fmt.Fprintln(s.out, "Ablation: parallel lifeguard cores (tidy, AddrCheck; paper §3)")
		tb := metrics.NewTable("lifeguard-cores", "slowdown")
		for _, r := range rows {
			tb.AddRow(fmt.Sprintf("%d", r.Cores), fmt.Sprintf("%.2fX", r.Slowdown))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	case "pipeline":
		rows, err := figures.PipelineAblation("bc", s.opts)
		if err != nil {
			return err
		}
		s.metrics["dispatch_pipelined_x"] = rows[0].Slowdown
		s.metrics["dispatch_serialised_x"] = rows[1].Slowdown
		fmt.Fprintln(s.out, "Ablation: pipelined nlba dispatch (bc, AddrCheck; paper §2 early-index)")
		tb := metrics.NewTable("pipelined", "slowdown", "lifeguard-cycles")
		for _, r := range rows {
			tb.AddRow(fmt.Sprintf("%v", r.Pipelined),
				fmt.Sprintf("%.2fX", r.Slowdown),
				fmt.Sprintf("%d", r.LgCycles))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	case "stall":
		rows, err := figures.SyscallStallTable(s.opts)
		if err != nil {
			return err
		}
		s.metrics["stall_worst_drain_pct"] = 100 * figures.WorstDrainShare(rows)
		fmt.Fprintln(s.out, "Ablation: syscall-containment stalls (paper §2 error containment)")
		tb := metrics.NewTable("benchmark", "drains", "drain-cycles", "share-of-app")
		for _, r := range rows {
			tb.AddRow(r.Benchmark,
				fmt.Sprintf("%d", r.DrainEvents),
				fmt.Sprintf("%d", r.DrainCycles),
				fmt.Sprintf("%.2f%%", 100*r.DrainShare))
		}
		fmt.Fprint(s.out, tb.String())
		fmt.Fprintln(s.out)

	default:
		return fmt.Errorf("unknown ablation %q (have buffer, compress, filter, parallel, stall, pipeline)", name)
	}
	return nil
}
