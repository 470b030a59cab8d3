// Command lbasim runs one benchmark of the suite under one monitoring mode
// and prints the measured result: the single-experiment entry point of the
// LBA reproduction.
//
// Usage:
//
//	lbasim -bench gzip -mode lba -lifeguard AddrCheck -scale 1000000
//	lbasim -bench w3m -mode lba -lifeguard TaintCheck -bug tainted-jump
//	lbasim -bench water -mode dbi -lifeguard LockSet -threads 4
//	lbasim -tenants 6 -pool 2 -sched least-lag
//	lbasim -tenants 6 -pool 2 -sched wfq -weights 4,1
//	lbasim -tenants 6 -pool 2 -sched deadline -deadline 2000
//	lbasim -tenants 6 -pool 2 -sched affinity -migration 1000
//	lbasim -tenants 6 -pool 2 -churn 2          # staggered arrivals/departures
//	lbasim -tenants 6 -pool 2 -seeds 3          # replicate across workload seeds
//	lbasim -tenants 8 -pool 4 -shards 4         # partition the pool, replay shards in parallel
//
// Modes: unmonitored, lba, dbi. Use -list for the benchmark table. With
// -tenants N the tool instead simulates N monitored applications (drawn
// from the suite) sharing a pool of -pool lifeguard cores under the
// -sched policy; -weights and -deadline feed the wfq/priority and
// deadline policies, and -migration prices serving a record on a
// shadow-cache-cold core (the affinity policy's reason to exist; all
// policies pay it once it is non-zero). -churn staggers tenant
// arrivals/departures (arrival spacing in units of the workload scale;
// departing tenants stop producing, drain, and release their channel)
// and reports the pool's peak channel concurrency; -seeds replays the
// cell across replicated workload seeds and reports the slowdown band.
// -shards K statically partitions the pool into K independent sub-pools
// (contiguous core groups, load-balanced tenant assignment) replayed in
// parallel — 1 shard is exactly the unsharded replay; K >= 2 is the
// static-partitioning scheduling point, deterministic for a given K.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbasim:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam (mirroring lbabench):
// flag parsing and validation happen on a private FlagSet so the
// table-driven rejection tests can call the command in-process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbasim", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", "gzip", "benchmark name (see -list)")
		mode      = fs.String("mode", "lba", "unmonitored | lba | dbi")
		lifeguard = fs.String("lifeguard", "AddrCheck", "AddrCheck | TaintCheck | LockSet | StackCheck | CacheProf")
		scale     = fs.Int("scale", 1_000_000, "approximate dynamic instructions")
		seed      = fs.Uint64("seed", 0xB5EED, "workload seed")
		threads   = fs.Int("threads", 2, "worker threads (multithreaded benchmarks)")
		bugName   = fs.String("bug", "none", "injected bug: none | use-after-free | double-free | leak | tainted-jump | race")
		baseline  = fs.Bool("baseline", true, "also run unmonitored and report the slowdown")
		tenants   = fs.Int("tenants", 0, "simulate N tenants sharing a lifeguard-core pool (0 = single run)")
		pool      = fs.Int("pool", 2, "shared lifeguard cores (with -tenants)")
		sched     = fs.String("sched", tenant.PolicyLeastLag, "pool scheduler: "+strings.Join(tenant.Policies(), " | "))
		weights   = fs.String("weights", "", "per-tenant WFQ weights, comma-separated, cycled over the tenant set (wfq/priority)")
		deadline  = fs.Uint64("deadline", 0, "per-tenant lag deadline in cycles for the deadline policy (0 = default)")
		migration = fs.Uint64("migration", 0, "migration penalty in cycles for serving a record on a cold core (0 = model off)")
		churn     = fs.Float64("churn", 0, "tenant churn rate: arrival spacing in units of the workload scale (0 = fixed set)")
		seeds     = fs.Int("seeds", 1, "replicate the pool cell across N workload seeds and report the band")
		shards    = fs.Int("shards", 0, "partition the pool into K sub-pools replayed in parallel (0/1 = unsharded)")
		list      = fs.Bool("list", false, "list benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		tb := metrics.NewTable("benchmark", "threads", "description")
		for _, s := range workloads.All() {
			kind := "1"
			if s.MultiThreaded {
				kind = "N"
			}
			tb.AddRow(s.Name, kind, s.Description)
		}
		fmt.Fprint(out, tb.String())
		return nil
	}

	switch {
	case *tenants < 0:
		return fmt.Errorf("-tenants must be >= 0, got %d", *tenants)
	case *tenants > 0:
		// The single-run selectors do not apply to a pool simulation;
		// silently dropping an explicit -bench or -bug would misread as
		// "ran it, found nothing".
		var err error
		conflicting := map[string]bool{"bench": true, "mode": true, "lifeguard": true, "bug": true, "baseline": true}
		fs.Visit(func(f *flag.Flag) {
			if conflicting[f.Name] && err == nil {
				err = fmt.Errorf("-%s does not apply with -tenants (the tenant set is drawn from the suite)", f.Name)
			}
		})
		if err != nil {
			return err
		}
		wts, err := tenant.ParseWeights(*weights)
		if err != nil {
			return err
		}
		// The pool shape must be coherent before any profiling runs.
		cfg := tenant.PoolConfig{Cores: *pool, Policy: *sched, Weights: wts,
			DeadlineCycles: *deadline, MigrationPenalty: *migration, Shards: *shards}
		if err := cfg.Validate(); err != nil {
			return err
		}
		if *seeds < 1 {
			return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
		}
		if err := (tenant.Churn{Rate: *churn}).Validate(); err != nil {
			return err
		}
		return runTenants(out, *tenants, cfg, *scale, *seed, *threads, *churn, *seeds)
	default:
		// Mirror image: pool flags only mean something with -tenants.
		var err error
		conflicting := map[string]bool{"pool": true, "sched": true, "weights": true, "deadline": true, "migration": true, "churn": true, "seeds": true, "shards": true}
		fs.Visit(func(f *flag.Flag) {
			if conflicting[f.Name] && err == nil {
				err = fmt.Errorf("-%s only applies with -tenants N", f.Name)
			}
		})
		if err != nil {
			return err
		}
		return runSingle(out, *bench, *mode, *lifeguard, *scale, *seed, *threads, *bugName, *baseline)
	}
}

// runTenants simulates n suite tenants sharing a lifeguard-core pool —
// optionally under a churn layout, optionally replicated across workload
// seeds — and prints the per-tenant breakdown (of the base seed) plus the
// cross-seed slowdown band when seeds > 1.
func runTenants(out io.Writer, n int, pool tenant.PoolConfig, scale int, seed uint64, threads int, churn float64, seeds int) error {
	eng := tenant.NewEngine(0, nil)
	results := make([]*tenant.PoolResult, seeds)
	for k := 0; k < seeds; k++ {
		wcfg := workloads.Config{Scale: scale, Seed: seed + uint64(k)*tenant.SeedStride, Threads: threads}
		set, err := tenant.FromSuite(n, wcfg, core.DefaultConfig())
		if err != nil {
			return err
		}
		if set, err = tenant.ApplyChurn(set, tenant.Churn{Rate: churn}); err != nil {
			return err
		}
		if results[k], err = eng.RunPool(context.Background(), set, pool); err != nil {
			return err
		}
	}
	res := results[0]

	fmt.Fprintf(out, "tenants        %d (suite round-robin)\n", n)
	fmt.Fprintf(out, "pool           %d lifeguard cores, %s scheduling\n", res.Cores, res.Policy)
	if res.Shards > 1 {
		fmt.Fprintf(out, "shards         %d statically-partitioned sub-pools, replayed in parallel\n", res.Shards)
	}
	if pool.MigrationPenalty > 0 {
		fmt.Fprintf(out, "migration      %d-cycle cold-core penalty\n", pool.MigrationPenalty)
	}
	if res.Churned {
		fmt.Fprintf(out, "churn          rate %.2f, peak concurrency %d of %d tenants\n", churn, res.PeakConcurrency, n)
	}
	// The arrival/departure columns appear only on churning cells, so a
	// fixed-set run keeps its pre-churn table shape.
	cols := []string{"tenant", "lifeguard", "slowdown", "cont-x"}
	if res.Churned {
		cols = append(cols, "arrive", "depart-at")
	}
	cols = append(cols, "stall-cyc", "drain-cyc", "lag-mean", "lag-p95", "migr", "cold-cyc", "violations")
	tb := metrics.NewTable(cols...)
	for _, tr := range res.Tenants {
		row := []string{tr.Name, tr.Lifeguard,
			fmt.Sprintf("%.2fX", tr.Slowdown),
			fmt.Sprintf("%.2fX", tr.ContentionX)}
		if res.Churned {
			row = append(row,
				fmt.Sprintf("%d", tr.ArriveAtCycles),
				fmt.Sprintf("%d", tr.DepartAtCycles))
		}
		row = append(row,
			fmt.Sprintf("%d", tr.StallCycles),
			fmt.Sprintf("%d", tr.DrainCycles),
			fmt.Sprintf("%.0f", tr.MeanLagCycles),
			fmt.Sprintf("%d", tr.LagP95Cycles),
			fmt.Sprintf("%d", tr.Migrations),
			fmt.Sprintf("%d", tr.ColdServeCycles),
			fmt.Sprintf("%d", tr.Violations))
		tb.AddRow(row...)
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "mean slowdown  %.2fX (max %.2fX)\n", res.MeanSlowdown, res.MaxSlowdown)
	fmt.Fprintf(out, "pool util      %.0f%% over %d makespan cycles\n", 100*res.Utilisation, res.MakespanCycles)
	if seeds > 1 {
		lo, hi, sum := results[0].MeanSlowdown, results[0].MeanSlowdown, 0.0
		for _, r := range results {
			if r.MeanSlowdown < lo {
				lo = r.MeanSlowdown
			}
			if r.MeanSlowdown > hi {
				hi = r.MeanSlowdown
			}
			sum += r.MeanSlowdown
		}
		fmt.Fprintf(out, "seed band      mean slowdown %.2f-%.2fX over %d seeds (mean of means %.2fX)\n",
			lo, hi, seeds, sum/float64(seeds))
	}
	return nil
}

func parseBug(name string) (workloads.BugKind, error) {
	for b := workloads.BugNone; b <= workloads.BugRace; b++ {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown bug %q", name)
}

func parseMode(name string) (core.Mode, error) {
	for _, m := range []core.Mode{core.ModeUnmonitored, core.ModeLBA, core.ModeDBI} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

func runSingle(out io.Writer, bench, modeName, lifeguard string, scale int, seed uint64, threads int, bugName string, baseline bool) error {
	spec, err := workloads.ByName(bench)
	if err != nil {
		return err
	}
	bug, err := parseBug(bugName)
	if err != nil {
		return err
	}
	mode, err := parseMode(modeName)
	if err != nil {
		return err
	}

	wcfg := workloads.Config{Scale: scale, Seed: seed, Threads: threads, Bug: bug}
	ccfg := core.DefaultConfig()

	res, err := core.Run(mode, spec.Build(wcfg), lifeguard, ccfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "benchmark      %s (%s)\n", spec.Name, spec.Description)
	fmt.Fprintf(out, "mode           %s", res.Mode)
	if res.Mode != core.ModeUnmonitored {
		fmt.Fprintf(out, " + %s", res.Lifeguard)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "instructions   %d\n", res.Instructions)
	fmt.Fprintf(out, "app cycles     %d (CPI %.2f)\n", res.AppCycles, res.CPI())
	fmt.Fprintf(out, "wall cycles    %d\n", res.WallCycles)
	fmt.Fprintf(out, "mem refs       %.1f%%\n", 100*res.MemRefFraction)
	if res.Mode == core.ModeLBA {
		fmt.Fprintf(out, "log records    %d (%.3f B/record compressed)\n", res.Records, res.BytesPerRecord)
		fmt.Fprintf(out, "buffer stalls  %d cycles\n", res.BufferStallCycles)
		fmt.Fprintf(out, "drain stalls   %d cycles over %d syscalls\n", res.DrainStallCycles, res.DrainEvents)
	}

	if baseline && mode != core.ModeUnmonitored {
		base, err := core.RunUnmonitored(spec.Build(wcfg), ccfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "slowdown       %.2fX vs unmonitored\n", res.SlowdownVs(base))
	}

	if len(res.Violations) == 0 {
		fmt.Fprintln(out, "violations     none")
	} else {
		fmt.Fprintf(out, "violations     %d\n", len(res.Violations))
		for i, v := range res.Violations {
			if i == 10 {
				fmt.Fprintf(out, "  ... %d more\n", len(res.Violations)-10)
				break
			}
			fmt.Fprintf(out, "  %s\n", v)
		}
	}
	return nil
}
