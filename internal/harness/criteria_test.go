package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseCriteria(t *testing.T, text string) (*Criteria, error) {
	t.Helper()
	return ParseCriteria(strings.NewReader(text))
}

func TestParseCriteriaAcceptsEveryKey(t *testing.T) {
	c, err := parseCriteria(t, `
# full-width criteria file
expect_violations: use-after-free=2, leak
max_slowdown_x: 60
min_slowdown_x: 1.5
max_mean_slowdown_x: 3
max_contention_x: 2.5
max_lag_p95_cycles: 120000
min_peak_concurrency: 2
max_peak_concurrency: 4
expect_max_tenants: 3
expect_fallback_scan: false
check_determinism: true
check_differential: true
`)
	if err != nil {
		t.Fatalf("ParseCriteria: %v", err)
	}
	if !c.HasViolations || len(c.ExpectViolations) != 2 {
		t.Fatalf("violations misparsed: %+v", c.ExpectViolations)
	}
	if c.ExpectViolations[0] != (ViolationExpect{Kind: "use-after-free", Count: 2}) {
		t.Fatalf("counted kind misparsed: %+v", c.ExpectViolations[0])
	}
	if c.ExpectViolations[1] != (ViolationExpect{Kind: "leak", Count: -1}) {
		t.Fatalf("uncounted kind should read count -1: %+v", c.ExpectViolations[1])
	}
	if c.MaxSlowdownX == nil || *c.MaxSlowdownX != 60 || c.MinSlowdownX == nil || *c.MinSlowdownX != 1.5 {
		t.Fatalf("slowdown bounds misparsed: %+v", c)
	}
	if c.MaxLagP95Cycles == nil || *c.MaxLagP95Cycles != 120000 {
		t.Fatalf("lag bound misparsed: %+v", c.MaxLagP95Cycles)
	}
	if c.ExpectMaxTenants == nil || *c.ExpectMaxTenants != 3 ||
		c.ExpectFallbackScan == nil || *c.ExpectFallbackScan {
		t.Fatalf("admission expectations misparsed: %+v", c)
	}
	if !c.CheckDeterminism || !c.CheckDifferential {
		t.Fatalf("check flags misparsed: %+v", c)
	}
}

func TestParseCriteriaExpectNone(t *testing.T) {
	c, err := parseCriteria(t, "expect_violations: none\n")
	if err != nil {
		t.Fatalf("ParseCriteria: %v", err)
	}
	if !c.HasViolations || c.ExpectViolations == nil || len(c.ExpectViolations) != 0 {
		t.Fatalf("\"none\" should parse to an empty, non-nil set: %#v", c.ExpectViolations)
	}
}

func TestParseCriteriaRejectsMalformedFiles(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"empty file", "# just a comment\n", "no criteria"},
		{"not key-value", "max_slowdown_x 60\n", "key: value"},
		{"unknown key", "max_speedup_x: 2\n", "unknown criteria key"},
		{"duplicate key", "max_slowdown_x: 2\nmax_slowdown_x: 3\n", "duplicate key"},
		{"nan bound", "max_slowdown_x: NaN\n", "finite non-negative"},
		{"negative bound", "max_contention_x: -1\n", "finite non-negative"},
		{"inf bound", "max_mean_slowdown_x: +Inf\n", "finite non-negative"},
		{"negative lag", "max_lag_p95_cycles: -5\n", "non-negative cycle count"},
		{"inverted slowdown", "min_slowdown_x: 3\nmax_slowdown_x: 2\n", "exceeds max_slowdown_x"},
		{"inverted concurrency", "min_peak_concurrency: 4\nmax_peak_concurrency: 2\n", "exceeds max_peak_concurrency"},
		{"none plus kind", "expect_violations: none, leak\n", "none"},
		{"duplicate kind", "expect_violations: leak, leak\n", "twice"},
		{"zero count", "expect_violations: leak=0\n", "positive integer"},
		{"bad bool", "check_determinism: maybe\n", "not a bool"},
		{"bad fallback", "expect_fallback_scan: 2maybe\n", "not a bool"},
		{"bad tenants", "expect_max_tenants: -1\n", "non-negative integer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseCriteria(t, tc.text)
			if err == nil {
				t.Fatalf("%q parsed cleanly, want error containing %q", tc.text, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCriteriaValidateForKind(t *testing.T) {
	single := Scenario{ID: "s", Kind: KindSingle, Benchmark: "gzip", Lifeguard: "AddrCheck"}
	pool := Scenario{ID: "p", Kind: KindPool, Policy: "wfq", Pool: 2, Tenants: 4}
	sharded := Scenario{ID: "sh", Kind: KindPool, Policy: "wfq", Pool: 4, Tenants: 4, Shards: 2}
	churned := Scenario{ID: "c", Kind: KindPool, Policy: "wfq", Pool: 2, Tenants: 4, Churn: 0.5}
	admission := Scenario{ID: "a", Kind: KindAdmission, Policy: "least-lag", Pool: 2, Tenants: 4, SLO: 1.25}

	cases := []struct {
		name string
		crit string
		s    Scenario
		want string // "" = valid
	}{
		{"single violation set", "expect_violations: use-after-free\n", single, ""},
		{"unknown violation kind", "expect_violations: heap-smash\n", single, "not produced by any lifeguard"},
		{"pool kind list", "expect_violations: leak\n", pool, "only \"expect_violations: none\""},
		{"pool none ok", "expect_violations: none\n", pool, ""},
		{"pool bound on single", "max_contention_x: 2\n", single, "only applies to pool"},
		{"lag bound on admission", "max_lag_p95_cycles: 100\n", admission, "only applies to pool"},
		{"slowdown bound on admission", "max_slowdown_x: 2\n", admission, "do not apply to admission"},
		{"admission expectation on pool", "expect_max_tenants: 3\n", pool, "only apply to admission"},
		{"violations on admission", "expect_violations: none\n", admission, "does not apply to admission"},
		{"differential on admission", "check_differential: true\n", admission, "does not apply to admission"},
		{"differential on pool", "check_differential: true\n", pool, "does not apply to pool"},
		{"differential on sharded pool", "check_differential: true\n", sharded, "does not apply to pool"},
		{"peak bound without churn", "min_peak_concurrency: 2\n", pool, "churn layout"},
		{"peak bound with churn", "min_peak_concurrency: 2\n", churned, ""},
		{"pool bounds on pool", "max_mean_slowdown_x: 2\nmax_contention_x: 2\n", pool, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseCriteria(t, tc.crit)
			if err != nil {
				t.Fatalf("ParseCriteria: %v", err)
			}
			err = c.validateFor(tc.s)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validateFor: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestLoadAllCriteriaMissingFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "have.criteria"),
		[]byte("expect_violations: none\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{ID: "have", Kind: KindSingle, Benchmark: "gzip", Lifeguard: "AddrCheck"},
		{ID: "missing", Kind: KindSingle, Benchmark: "gzip", Lifeguard: "AddrCheck"},
	}
	_, err := LoadAllCriteria(dir, scenarios)
	if err == nil || !strings.Contains(err.Error(), "missing") ||
		!strings.Contains(err.Error(), "no criteria file") {
		t.Fatalf("missing criteria file should name the scenario, got: %v", err)
	}

	crit, err := LoadAllCriteria(dir, scenarios[:1])
	if err != nil {
		t.Fatalf("LoadAllCriteria: %v", err)
	}
	if !crit["have"].HasViolations {
		t.Fatalf("loaded criteria lost its violation set: %+v", crit["have"])
	}
}
