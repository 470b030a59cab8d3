// Package harness is the declarative scenario harness: a CSV runlist of
// scenarios (workload × lifeguard × injected bug × policy × pool shape ×
// churn × shards), one criteria file of expectations per scenario, and an
// executor that runs the list through the same memoized engines as the
// figures and reduces each scenario to a pass/fail row in an
// lba-harness/v1 summary.
//
// The shape follows the atomic-harness pattern (runlist → runner →
// per-test criteria → validation summary): scenarios live in data, not in
// Go code, so growing the regression corpus means adding a CSV row and a
// criteria file, not writing a test. The checked-in seed corpus under
// corpus/ doubles as the project's open-ended regression suite
// (TestScenarioCorpus), and its criteria fold the classic bespoke checks
// — expected violation sets, slowdown/lag SLO bounds, admission counts,
// dispatch-oracle differentials and rerun determinism — into data.
//
// Execution reuses the experiment engines end to end: single scenarios
// are runner.Jobs (memoized by content hash, so a scenario and its
// baseline share runs with every other scenario needing them), pool and
// admission scenarios run on a shared tenant.Engine (memoized profiles),
// and the scenario fan-out itself is a runner.Map. Results come back in
// runlist order regardless of worker count, so a parallel harness run
// emits a summary byte-identical to the serial reference — the same
// determinism contract the figure matrices carry.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// Options configures a harness run.
type Options struct {
	// Workers is the scenario fan-out width (<= 0 selects NumCPU, 1 is
	// the serial reference every parallel run must match byte-for-byte).
	Workers int
	// Threads sizes the multithreaded benchmarks; 0 selects
	// DefaultThreads.
	Threads int
}

// Run executes every scenario against its criteria and returns the
// validation summary. Scenario execution fans out across the worker pool;
// shared sub-results (unmonitored baselines, tenant profiles) are
// memoized across scenarios through one runner.Engine and one
// tenant.Engine. An error means the harness could not run (bad
// configuration, a simulation failure); failed checks are not an error —
// they are fail rows in the summary, and Summary.Failures lists them.
func Run(ctx context.Context, scenarios []Scenario, criteria map[string]*Criteria, opts Options) (*Summary, error) {
	if opts.Threads <= 0 {
		opts.Threads = DefaultThreads
	}
	for _, s := range scenarios {
		c, ok := criteria[s.ID]
		if !ok || c == nil {
			return nil, fmt.Errorf("harness: scenario %q has no criteria", s.ID)
		}
		if err := c.validateFor(s); err != nil {
			return nil, fmt.Errorf("harness: criteria for scenario %q: %v", s.ID, err)
		}
	}

	h := &executor{
		exp:     runner.New(opts.Workers),
		threads: opts.Threads,
	}
	h.ten = tenant.NewEngine(opts.Workers, h.exp)

	results, err := runner.Map(ctx, h.exp.Workers(), len(scenarios),
		func(ctx context.Context, i int) (ScenarioResult, error) {
			s := scenarios[i]
			res, err := h.runScenario(ctx, s, criteria[s.ID])
			if err != nil {
				return ScenarioResult{}, fmt.Errorf("harness: scenario %q: %w", s.ID, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	sum := &Summary{Schema: Schema, Scenarios: results, Total: len(results)}
	for _, r := range results {
		if r.Status == StatusPass {
			sum.Passed++
		} else {
			sum.Failed++
		}
	}
	return sum, nil
}

// executor carries one harness run's shared engines.
type executor struct {
	exp     *runner.Engine
	ten     *tenant.Engine
	threads int
}

func (h *executor) workloadConfig(s Scenario) workloads.Config {
	return workloads.Config{Scale: s.Scale, Seed: s.Seed, Threads: h.threads, Bug: s.Bug}
}

func (s Scenario) poolConfig() tenant.PoolConfig {
	return tenant.PoolConfig{
		Cores: s.Pool, Policy: s.Policy, Weights: s.Weights,
		MigrationPenalty: s.Migration, Shards: s.Shards,
	}
}

func (h *executor) runScenario(ctx context.Context, s Scenario, c *Criteria) (ScenarioResult, error) {
	var (
		art *Artifact
		err error
	)
	switch s.Kind {
	case KindSingle:
		art, err = h.runSingle(ctx, s, c)
	case KindPool:
		art, err = h.runPool(ctx, s, c)
	case KindAdmission:
		art, err = h.runAdmission(ctx, s, c)
	default:
		err = fmt.Errorf("unknown kind %q", s.Kind)
	}
	if err != nil {
		return ScenarioResult{}, err
	}

	res := ScenarioResult{ID: s.ID, Kind: s.Kind, Status: StatusPass, Checks: art.Checks, artifact: art}
	for _, ck := range art.Checks {
		if !ck.Pass {
			res.Status = StatusFail
		}
	}
	return res, nil
}

// runSingle executes one benchmark × lifeguard × bug cell through the
// memoized experiment engine, plus its unmonitored baseline for the
// slowdown bound and, under check_differential, the DBI oracle.
func (h *executor) runSingle(ctx context.Context, s Scenario, c *Criteria) (*Artifact, error) {
	wcfg, ccfg := h.workloadConfig(s), core.DefaultConfig()
	lbaJob := runner.Job{Benchmark: s.Benchmark, Mode: core.ModeLBA, Lifeguard: s.Lifeguard, Workload: wcfg, Config: ccfg}
	res, err := h.exp.Run(ctx, lbaJob)
	if err != nil {
		return nil, err
	}
	base, err := h.exp.Run(ctx, runner.Job{Benchmark: s.Benchmark, Mode: core.ModeUnmonitored, Workload: wcfg, Config: ccfg})
	if err != nil {
		return nil, err
	}

	single := &SingleArtifact{
		Benchmark:  s.Benchmark,
		Lifeguard:  s.Lifeguard,
		Bug:        s.Bug.String(),
		Scale:      s.Scale,
		Seed:       s.Seed,
		WallCycles: res.WallCycles,
		AppCycles:  res.AppCycles,
		Records:    res.Records,
		Slowdown:   res.SlowdownVs(base),
		Violations: make([]string, 0, len(res.Violations)),
	}
	for _, v := range res.Violations {
		single.Violations = append(single.Violations, v.String())
	}

	var checks []Check
	if c.HasViolations {
		checks = append(checks, checkViolationSet(c.ExpectViolations, violationKinds(res)))
	}
	checks = appendSlowdownChecks(checks, c, single.Slowdown)
	if c.CheckDifferential {
		dbi, err := h.exp.Run(ctx, runner.Job{Benchmark: s.Benchmark, Mode: core.ModeDBI, Lifeguard: s.Lifeguard, Workload: wcfg, Config: ccfg})
		if err != nil {
			return nil, err
		}
		lbaKinds, dbiKinds := kindList(violationKinds(res)), kindList(violationKinds(dbi))
		checks = append(checks, Check{
			Name: "check_differential",
			Want: "dbi violation set == lba violation set",
			Got:  fmt.Sprintf("lba [%s] vs dbi [%s]", lbaKinds, dbiKinds),
			Pass: lbaKinds == dbiKinds,
		})
	}
	if c.CheckDeterminism {
		again, err := runner.New(1).Run(ctx, lbaJob)
		if err != nil {
			return nil, err
		}
		same := res.WallCycles == again.WallCycles && res.Records == again.Records &&
			reflect.DeepEqual(res.Violations, again.Violations)
		checks = append(checks, Check{
			Name: "check_determinism",
			Want: "fresh-engine rerun reproduces cycles, records and violations",
			Got:  deterministicGot(same),
			Pass: same,
		})
	}

	return &Artifact{Schema: ArtifactSchema, ID: s.ID, Kind: s.Kind, Checks: checks, Single: single}, nil
}

// runPool replays the scenario's suite tenant set against its pool shape
// and evaluates the cell-level SLO bounds, plus the rerun-determinism and
// per-record-oracle differentials when asked.
func (h *executor) runPool(ctx context.Context, s Scenario, c *Criteria) (*Artifact, error) {
	set, pool, err := h.tenantSet(s)
	if err != nil {
		return nil, err
	}
	res, err := h.ten.RunPool(ctx, set, pool)
	if err != nil {
		return nil, err
	}
	cell := res.Cell()

	var checks []Check
	if c.HasViolations {
		var total int
		for _, t := range res.Tenants {
			total += t.Violations
		}
		checks = append(checks, Check{
			Name: "expect_violations",
			Want: "none",
			Got:  fmt.Sprintf("%d violations across %d tenants", total, len(res.Tenants)),
			Pass: total == 0,
		})
	}
	if c.MaxSlowdownX != nil {
		checks = append(checks, boundCheck("max_slowdown_x", res.MaxSlowdown, *c.MaxSlowdownX, res.MaxSlowdown <= *c.MaxSlowdownX))
	}
	if c.MinSlowdownX != nil {
		checks = append(checks, Check{
			Name: "min_slowdown_x",
			Want: fmt.Sprintf(">= %.4g", *c.MinSlowdownX),
			Got:  formatX(res.MaxSlowdown),
			Pass: res.MaxSlowdown >= *c.MinSlowdownX,
		})
	}
	if c.MaxMeanSlowdownX != nil {
		checks = append(checks, boundCheck("max_mean_slowdown_x", res.MeanSlowdown, *c.MaxMeanSlowdownX, res.MeanSlowdown <= *c.MaxMeanSlowdownX))
	}
	if c.MaxContentionX != nil {
		checks = append(checks, boundCheck("max_contention_x", res.MaxContentionX, *c.MaxContentionX, res.MaxContentionX <= *c.MaxContentionX))
	}
	if c.MaxLagP95Cycles != nil {
		var worst uint64
		for _, t := range res.Tenants {
			if t.LagP95Cycles > worst {
				worst = t.LagP95Cycles
			}
		}
		checks = append(checks, Check{
			Name: "max_lag_p95_cycles",
			Want: fmt.Sprintf("<= %d", *c.MaxLagP95Cycles),
			Got:  fmt.Sprintf("%d", worst),
			Pass: worst <= *c.MaxLagP95Cycles,
		})
	}
	if c.MinPeakConcurrency != nil {
		checks = append(checks, Check{
			Name: "min_peak_concurrency",
			Want: fmt.Sprintf(">= %d", *c.MinPeakConcurrency),
			Got:  fmt.Sprintf("%d", res.PeakConcurrency),
			Pass: res.PeakConcurrency >= *c.MinPeakConcurrency,
		})
	}
	if c.MaxPeakConcurrency != nil {
		checks = append(checks, Check{
			Name: "max_peak_concurrency",
			Want: fmt.Sprintf("<= %d", *c.MaxPeakConcurrency),
			Got:  fmt.Sprintf("%d", res.PeakConcurrency),
			Pass: res.PeakConcurrency <= *c.MaxPeakConcurrency,
		})
	}
	if c.CheckDifferential {
		pass, got, err := h.dispatchOracle(ctx, set, pool, res)
		if err != nil {
			return nil, err
		}
		checks = append(checks, Check{
			Name: "check_differential",
			Want: "per-record dispatch oracle deep-equals the batched replay",
			Got:  got,
			Pass: pass,
		})
	}
	if c.CheckDeterminism {
		again, err := tenant.NewEngine(1, nil).RunPool(ctx, set, pool)
		if err != nil {
			return nil, err
		}
		a, err := json.Marshal(cell)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(again.Cell())
		if err != nil {
			return nil, err
		}
		same := string(a) == string(b)
		checks = append(checks, Check{
			Name: "check_determinism",
			Want: "fresh-engine rerun reproduces the cell byte-for-byte",
			Got:  deterministicGot(same),
			Pass: same,
		})
	}

	return &Artifact{Schema: ArtifactSchema, ID: s.ID, Kind: s.Kind, Checks: checks, Cell: &cell}, nil
}

// dispatchOracle replays the scenario's profiles (tenant.Engine.Profiles,
// the ones RunPool replayed) through the per-record reference
// (tenant.ReplayPoolReference) and deep-compares against the batched
// result — the corpus form of the TestBatchedDispatchMatchesPerRecord
// differential.
func (h *executor) dispatchOracle(ctx context.Context, set []tenant.Tenant, pool tenant.PoolConfig, batched *tenant.PoolResult) (bool, string, error) {
	profiles, err := h.ten.Profiles(ctx, set)
	if err != nil {
		return false, "", err
	}
	oracle, err := tenant.ReplayPoolReference(ctx, profiles, pool)
	if err != nil {
		return false, "", err
	}
	if reflect.DeepEqual(oracle, batched) {
		return true, "deep-equal", nil
	}
	return false, "per-record oracle diverged from the batched replay", nil
}

// runAdmission answers the scenario's admission query and checks the
// admitted count.
func (h *executor) runAdmission(ctx context.Context, s Scenario, c *Criteria) (*Artifact, error) {
	wcfg, ccfg := h.workloadConfig(s), core.DefaultConfig()
	query := tenant.AdmissionQuery{
		Pool:       s.poolConfig(),
		SLOs:       []float64{s.SLO},
		MaxTenants: s.Tenants,
		Churn:      tenant.Churn{Rate: s.Churn},
	}
	points, err := h.ten.PlanAdmissionQuery(ctx, wcfg, ccfg, query)
	if err != nil {
		return nil, err
	}
	if len(points) != 1 {
		return nil, fmt.Errorf("admission query returned %d points, want 1", len(points))
	}
	p := points[0]

	var checks []Check
	if c.ExpectMaxTenants != nil {
		checks = append(checks, Check{
			Name: "expect_max_tenants",
			Want: fmt.Sprintf("== %d", *c.ExpectMaxTenants),
			Got:  fmt.Sprintf("%d", p.MaxTenants),
			Pass: p.MaxTenants == *c.ExpectMaxTenants,
		})
	}
	if c.ExpectFallbackScan != nil {
		checks = append(checks, Check{
			Name: "expect_fallback_scan",
			Want: fmt.Sprintf("%v", *c.ExpectFallbackScan),
			Got:  fmt.Sprintf("%v", p.FallbackScan),
			Pass: p.FallbackScan == *c.ExpectFallbackScan,
		})
	}
	if c.CheckDeterminism {
		again, err := tenant.NewEngine(1, nil).PlanAdmissionQuery(ctx, wcfg, ccfg, query)
		if err != nil {
			return nil, err
		}
		a, _ := json.Marshal(points)
		b, _ := json.Marshal(again)
		same := string(a) == string(b)
		checks = append(checks, Check{
			Name: "check_determinism",
			Want: "fresh-engine rerun reproduces the admission points byte-for-byte",
			Got:  deterministicGot(same),
			Pass: same,
		})
	}

	return &Artifact{Schema: ArtifactSchema, ID: s.ID, Kind: s.Kind, Checks: checks, Admission: points}, nil
}

// tenantSet builds a pool scenario's churned suite population.
func (h *executor) tenantSet(s Scenario) ([]tenant.Tenant, tenant.PoolConfig, error) {
	wcfg := h.workloadConfig(s)
	set, err := tenant.FromSuite(s.Tenants, wcfg, core.DefaultConfig())
	if err != nil {
		return nil, tenant.PoolConfig{}, err
	}
	if set, err = tenant.ApplyChurn(set, tenant.Churn{Rate: s.Churn}); err != nil {
		return nil, tenant.PoolConfig{}, err
	}
	return set, s.poolConfig(), nil
}

// --- check helpers ---

func appendSlowdownChecks(checks []Check, c *Criteria, slowdown float64) []Check {
	if c.MaxSlowdownX != nil {
		checks = append(checks, boundCheck("max_slowdown_x", slowdown, *c.MaxSlowdownX, slowdown <= *c.MaxSlowdownX))
	}
	if c.MinSlowdownX != nil {
		checks = append(checks, Check{
			Name: "min_slowdown_x",
			Want: fmt.Sprintf(">= %.4g", *c.MinSlowdownX),
			Got:  formatX(slowdown),
			Pass: slowdown >= *c.MinSlowdownX,
		})
	}
	return checks
}

func boundCheck(name string, got, bound float64, pass bool) Check {
	return Check{Name: name, Want: fmt.Sprintf("<= %.4g", bound), Got: formatX(got), Pass: pass}
}

func formatX(v float64) string { return fmt.Sprintf("%.4f", v) }

func deterministicGot(same bool) string {
	if same {
		return "identical"
	}
	return "diverged"
}

// violationKinds reduces a run's violations to a kind → count map.
func violationKinds(res *core.Result) map[string]int {
	kinds := map[string]int{}
	for _, v := range res.Violations {
		kinds[v.Kind]++
	}
	return kinds
}

// kindList renders a kind-count map deterministically.
func kindList(kinds map[string]int) string {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", k, kinds[k]))
	}
	return strings.Join(parts, ",")
}

// checkViolationSet compares observed violation kinds against the
// expected set: every expected kind must appear (with the exact count
// when one is given), and no unexpected kind may appear.
func checkViolationSet(expect []ViolationExpect, got map[string]int) Check {
	want := "none"
	if len(expect) > 0 {
		parts := make([]string, 0, len(expect))
		for _, e := range expect {
			if e.Count >= 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", e.Kind, e.Count))
			} else {
				parts = append(parts, e.Kind)
			}
		}
		want = strings.Join(parts, ",")
	}

	pass := true
	expected := map[string]bool{}
	for _, e := range expect {
		expected[e.Kind] = true
		n := got[e.Kind]
		if n == 0 || (e.Count >= 0 && n != e.Count) {
			pass = false
		}
	}
	for k := range got {
		if !expected[k] {
			pass = false
		}
	}

	gotStr := kindList(got)
	if gotStr == "" {
		gotStr = "none"
	}
	return Check{Name: "expect_violations", Want: want, Got: gotStr, Pass: pass}
}
