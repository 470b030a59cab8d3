package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScenarios is a small cross-kind runlist: a buggy single run, a clean
// single run, a weighted pool with churn, a sharded pool, and an admission
// query. Scales stay at the differential suite's 40k so injected bugs are
// certainly detected.
const testRunlist = runlistHead +
	"uaf-bc,single,bc,AddrCheck,use-after-free,,,,,,,,,,\n" +
	"clean-gzip,single,gzip,AddrCheck,,,,,,,,,,,\n" +
	"wfq-churn,pool,,,,4,wfq,2,\"2,1\",120,0.5,,,,\n" +
	"rr-sharded,pool,,,,4,round-robin,4,,,,2,,,\n" +
	"adm-least-lag,admission,,,,,least-lag,2,,,,,,,1.25\n"

func testCriteria(t *testing.T) (scenarios []Scenario, criteria map[string]*Criteria) {
	t.Helper()
	scenarios, err := ParseRunlist(strings.NewReader(testRunlist))
	if err != nil {
		t.Fatalf("ParseRunlist: %v", err)
	}
	criteria = map[string]*Criteria{}
	for id, text := range map[string]string{
		"uaf-bc":        "expect_violations: use-after-free\nmin_slowdown_x: 1\ncheck_differential: true\n",
		"clean-gzip":    "expect_violations: none\nmax_slowdown_x: 500\ncheck_determinism: true\n",
		"wfq-churn":     "expect_violations: none\nmax_slowdown_x: 10000\nmin_peak_concurrency: 1\ncheck_determinism: true\n",
		"rr-sharded":    "max_slowdown_x: 10000\ncheck_determinism: true\n",
		"adm-least-lag": "expect_max_tenants: 0\ncheck_determinism: true\n",
	} {
		c, err := ParseCriteria(strings.NewReader(text))
		if err != nil {
			t.Fatalf("criteria %s: %v", id, err)
		}
		criteria[id] = c
	}
	// The admission count depends on the machine-independent replay, so
	// pin it from a probe run rather than hard-coding.
	probe, err := Run(context.Background(), scenarios[4:], map[string]*Criteria{"adm-least-lag": {CheckDeterminism: true}}, Options{Workers: 1})
	if err != nil {
		t.Fatalf("admission probe: %v", err)
	}
	admitted := probe.Scenarios[0].artifact.Admission[0].MaxTenants
	criteria["adm-least-lag"].ExpectMaxTenants = &admitted
	return scenarios, criteria
}

func TestHarnessRunValidatesCorpus(t *testing.T) {
	scenarios, criteria := testCriteria(t)
	sum, err := Run(context.Background(), scenarios, criteria, Options{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Schema != Schema {
		t.Fatalf("schema %q, want %q", sum.Schema, Schema)
	}
	if sum.Total != len(scenarios) || sum.Passed != sum.Total || sum.Failed != 0 {
		t.Fatalf("expected all-pass summary, got passed=%d failed=%d total=%d (failures: %v)",
			sum.Passed, sum.Failed, sum.Total, failureDetail(sum))
	}
	for i, r := range sum.Scenarios {
		if r.ID != scenarios[i].ID {
			t.Fatalf("summary row %d is %q, want runlist order %q", i, r.ID, scenarios[i].ID)
		}
		if len(r.Checks) == 0 {
			t.Fatalf("scenario %q evaluated no checks", r.ID)
		}
	}
}

func TestHarnessBrokenCriteriaFailRow(t *testing.T) {
	scenarios, criteria := testCriteria(t)
	// Break the buggy scenario's expectation: demanding a clean run from
	// an injected use-after-free must produce a fail row, not an error.
	criteria["uaf-bc"] = &Criteria{ExpectViolations: []ViolationExpect{}, HasViolations: true}
	sum, err := Run(context.Background(), scenarios, criteria, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Failed != 1 || sum.Passed != len(scenarios)-1 {
		t.Fatalf("want exactly one failure, got passed=%d failed=%d", sum.Passed, sum.Failed)
	}
	fails := sum.Failures()
	if len(fails) != 1 || fails[0] != "uaf-bc" {
		t.Fatalf("Failures() = %v, want [uaf-bc]", fails)
	}
	var row *ScenarioResult
	for i := range sum.Scenarios {
		if sum.Scenarios[i].ID == "uaf-bc" {
			row = &sum.Scenarios[i]
		}
	}
	if row.Status != StatusFail {
		t.Fatalf("broken scenario status %q, want %q", row.Status, StatusFail)
	}
	var checked bool
	for _, ck := range row.Checks {
		if ck.Name == "expect_violations" {
			checked = true
			if ck.Pass || ck.Want != "none" || !strings.Contains(ck.Got, "use-after-free") {
				t.Fatalf("violation check should fail naming the observed kind: %+v", ck)
			}
		}
	}
	if !checked {
		t.Fatalf("no expect_violations check on the broken row: %+v", row.Checks)
	}
}

func TestHarnessSummaryDeterministicAcrossWorkers(t *testing.T) {
	scenarios, criteria := testCriteria(t)
	encode := func(workers int) []byte {
		sum, err := Run(context.Background(), scenarios, criteria, Options{Workers: workers})
		if err != nil {
			t.Fatalf("Run (workers %d): %v", workers, err)
		}
		dir := t.TempDir()
		if err := sum.WriteArtifacts(dir); err != nil {
			t.Fatalf("WriteArtifacts: %v", err)
		}
		var buf bytes.Buffer
		if err := sum.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		for _, r := range sum.Scenarios {
			blob, err := os.ReadFile(filepath.Join(dir, r.Artifact))
			if err != nil {
				t.Fatalf("artifact %s: %v", r.Artifact, err)
			}
			buf.Write(blob)
		}
		return buf.Bytes()
	}
	serial, parallel := encode(1), encode(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("summary+artifacts diverge between -workers 1 (%d bytes) and -workers 4 (%d bytes)",
			len(serial), len(parallel))
	}
}

func TestHarnessRunRejectsMissingCriteria(t *testing.T) {
	scenarios, criteria := testCriteria(t)
	delete(criteria, "clean-gzip")
	_, err := Run(context.Background(), scenarios, criteria, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "clean-gzip") {
		t.Fatalf("missing criteria should error naming the scenario, got: %v", err)
	}
}

func TestWriteArtifactsNamesSummaryRows(t *testing.T) {
	scenarios, criteria := testCriteria(t)
	sum, err := Run(context.Background(), scenarios[:2], map[string]*Criteria{
		"uaf-bc":     criteria["uaf-bc"],
		"clean-gzip": criteria["clean-gzip"],
	}, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	dir := t.TempDir()
	if err := sum.WriteArtifacts(dir); err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	for _, r := range sum.Scenarios {
		if r.Artifact != r.ID+".json" {
			t.Fatalf("row %q artifact %q, want %q", r.ID, r.Artifact, r.ID+".json")
		}
		blob, err := os.ReadFile(filepath.Join(dir, r.Artifact))
		if err != nil {
			t.Fatal(err)
		}
		var art Artifact
		if err := json.Unmarshal(blob, &art); err != nil {
			t.Fatalf("artifact %s is not valid JSON: %v", r.Artifact, err)
		}
		if art.Schema != ArtifactSchema || art.ID != r.ID {
			t.Fatalf("artifact %s misidentifies itself: %+v", r.Artifact, art)
		}
		if r.Kind == KindSingle && art.Single == nil {
			t.Fatalf("single artifact %s has no measured record", r.Artifact)
		}
	}
}

func failureDetail(sum *Summary) []Check {
	var bad []Check
	for _, r := range sum.Scenarios {
		for _, ck := range r.Checks {
			if !ck.Pass {
				bad = append(bad, ck)
			}
		}
	}
	return bad
}
