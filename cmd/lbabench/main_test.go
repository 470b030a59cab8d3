package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/runner"
)

// TestJSONGoldenDeterminism is the command-level determinism contract:
// with a fixed seed, repeated invocations — and invocations differing
// only in worker-pool width — must produce byte-identical JSON
// artifacts, tenant-matrix cells included. This is what lets trajectory
// tooling diff BENCH_*.json across commits without worrying about the
// machine that produced them.
func TestJSONGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string, workers int) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := []string{
			"-n", "40000",
			"-fig", "2a",
			"-tenants", "3", "-pool", "2", "-sched", "least-lag",
			"-workers", strconv.Itoa(workers),
			"-json", path,
		}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("lbabench %v: %v", args, err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) == 0 {
			t.Fatal("empty JSON artifact")
		}
		return blob
	}

	first := runOnce("serial-1.json", 1)
	again := runOnce("serial-2.json", 1)
	wide := runOnce("workers-4.json", 4)

	if !bytes.Equal(first, again) {
		t.Error("repeated serial runs produced different JSON")
	}
	if !bytes.Equal(first, wide) {
		t.Error("-workers 4 JSON differs from the serial reference run")
	}
	if !bytes.Contains(first, []byte(`"tenant_cells"`)) {
		t.Error("artifact is missing the tenant-matrix section")
	}
	if !bytes.Contains(first, []byte(`"schema": "lba-runner/v1"`)) {
		t.Error("artifact lost its schema tag")
	}
}

// TestContentionFigureRuns smoke-tests the new figure end to end through
// the command surface (text path, not just JSON).
func TestContentionFigureRuns(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "30000", "-fig", "contention", "-tenants", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"multi-tenant contention", "round-robin", "least-lag", "8"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("figure output missing %q", want)
		}
	}
}

// TestSchedFigureRuns drives the scheduler figure through the command
// surface: all six policies appear, the admission table prints, and the
// JSON artifact carries an admission section whose points are byte-stable
// across worker counts.
func TestSchedFigureRuns(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string, workers int) (string, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out bytes.Buffer
		err := run([]string{
			"-n", "30000",
			"-fig", "sched",
			"-tenants", "3", "-pool", "2", "-weights", "2,1", "-deadline", "1500",
			"-workers", strconv.Itoa(workers),
			"-json", path,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), blob
	}

	text, blob := runOnce("serial.json", 1)
	for _, want := range []string{
		"pool schedulers", "Admission control",
		"round-robin", "least-lag", "deadline", "wfq", "priority", "affinity",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("sched figure output missing %q", want)
		}
	}
	for _, want := range []string{`"admission"`, `"slo_contention_x"`, `"max_tenants"`, `"tenant_cells"`} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Errorf("sched JSON artifact missing %q", want)
		}
	}
	// Two SLO points per policy.
	if n := bytes.Count(blob, []byte(`"slo_contention_x"`)); n != 2*6 {
		t.Errorf("admission section has %d points, want 12 (2 SLOs x 6 policies)", n)
	}

	_, wide := runOnce("workers-4.json", 4)
	if !bytes.Equal(blob, wide) {
		t.Error("-workers 4 sched JSON differs from the serial reference run")
	}
}

func TestUnknownSelectorsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9z"},
		{"-table", "nope"},
		{"-ablation", "nope"},
		{"-tenants", "2", "-pool", "2", "-sched", "nope", "-n", "30000"},
		{"-tenants", "2", "-weights", "1,zero", "-n", "30000"},
		{"-tenants", "2", "-weights", "-1", "-n", "30000"},
		{"-weights", "2,1"},                                             // pool flags need -tenants or a pool figure
		{"-deadline", "100"},                                            // ditto
		{"-migration", "100"},                                           // ditto
		{"-fig", "sched", "-sched", "least-lag"},                        // the sched figure sweeps all policies
		{"-fig", "contention", "-pool", "2"},                            // the contention figure sweeps pools
		{"-fig", "affinity", "-sched", "affinity"},                      // the affinity figure sweeps policies
		{"-fig", "affinity", "-migration", "100"},                       // ...and penalties
		{"-fig", "affinity", "-deadline", "2000"},                       // ...and none of its policies read a deadline
		{"-fig", "contention", "-migration", "100"},                     // contention has no migration model
		{"-shards", "2"},                                                // sharding is a single-cell knob
		{"-fig", "sched", "-shards", "2"},                               // the figures pin the global replay
		{"-tenants", "2", "-pool", "2", "-shards", "-1", "-n", "30000"}, // negative shard counts are rejected
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestChurnFlagValidation is the table-driven churn/seeds surface: flag
// placement, negative times and degenerate replication counts are all
// rejected before any simulation runs.
func TestChurnFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-churn", "0.5"}, "churn needs a tenant cell"},
		{[]string{"-fig", "churn", "-churn", "0.5"}, "the churn figure sweeps rates itself"},
		{[]string{"-fig", "contention", "-churn", "0.5"}, "the contention figure has no churn layout"},
		{[]string{"-tenants", "2", "-churn", "-0.5", "-n", "30000"}, "negative churn rates are negative times"},
		{[]string{"-tenants", "2", "-churn", "NaN", "-n", "30000"}, "NaN rates are not a layout"},
		{[]string{"-fig", "churn", "-seeds", "0"}, "a search needs at least one seed"},
		{[]string{"-fig", "churn", "-seeds", "-3"}, "negative seed counts are rejected"},
		{[]string{"-tenants", "2", "-seeds", "2", "-n", "30000"}, "lbabench band replication is a churn-figure feature"},
		{[]string{"-fig", "2a", "-seeds", "2"}, "paper panels take no seeds flag"},
	} {
		if err := run(c.args, io.Discard); err == nil {
			t.Errorf("args %v should fail (%s)", c.args, c.why)
		}
	}
}

// TestPoolFlagValidation pins the up-front pool-shape rejections: a pool
// without cores, negative shard counts, and more shards than cores must
// all fail before any experiment runs.
func TestPoolFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-tenants", "2", "-pool", "0", "-n", "30000"}, "a zero-core pool cannot serve"},
		{[]string{"-tenants", "2", "-pool", "-3", "-n", "30000"}, "negative core counts are rejected"},
		{[]string{"-fig", "sched", "-pool", "0"}, "figure sweeps need a real pool too"},
		{[]string{"-tenants", "4", "-pool", "2", "-shards", "-1", "-n", "30000"}, "negative shard counts are rejected"},
		{[]string{"-tenants", "4", "-pool", "2", "-shards", "3", "-n", "30000"}, "more shards than cores cannot partition"},
		{[]string{"-tenants", "2", "-window", "512", "-n", "30000"}, "the decode window is fixed; there is no -window flag"},
	} {
		if err := run(c.args, io.Discard); err == nil {
			t.Errorf("args %v should fail (%s)", c.args, c.why)
		}
	}
}

// TestAffinityGoldenMatchesPR4 is the churn-off equivalence golden: the
// checked-in artifact was captured from the PR 4 affinity tier *before*
// the replay learned tenant churn, so the whole byte-for-byte comparison
// proves that a tenant set where everyone arrives at 0 and never departs
// replays exactly like the fixed-set path — churn is a strict no-op when
// disabled. The wfq cells at penalties 20/80/320 were re-captured when
// rank-mapped policies learned the warmth-aware tie-break (equal
// projected finishes now prefer the warmer core); every penalty-0 cell
// and all least-lag/affinity cells are byte-identical to the PR 4
// capture, which is the tie-break's own no-op guarantee.
func TestAffinityGoldenMatchesPR4(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "affinity_golden_pr4.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "affinity.json")
	// Mirrors the invocation that captured the golden.
	if err := run([]string{
		"-n", "30000", "-fig", "affinity",
		"-tenants", "3", "-pool", "2",
		"-workers", "1", "-json", path,
	}, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, blob) {
		t.Error("affinity artifact diverged from the pre-churn PR 4 golden: churn-off replay is no longer a strict no-op")
	}
}

// TestChurnFigureGolden drives the churn figure end to end: the text
// table and JSON artifact carry the churn schema, and -workers 1 and
// -workers 4 produce byte-identical artifacts (the worker-count
// determinism golden for the new figure).
func TestChurnFigureGolden(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string, workers int) (string, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out bytes.Buffer
		err := run([]string{
			"-n", "30000",
			"-fig", "churn",
			"-tenants", "3", "-pool", "2", "-seeds", "2",
			"-workers", strconv.Itoa(workers),
			"-json", path,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), blob
	}

	text, blob := runOnce("serial.json", 1)
	for _, want := range []string{"tenant churn", "admissible tenants vs churn rate", "peak-conc", "probes", "2 seed(s)"} {
		if !strings.Contains(text, want) {
			t.Errorf("churn figure output missing %q", want)
		}
	}
	for _, want := range []string{`"churn"`, `"churn_rate"`, `"max_tenants"`, `"seeds": 2`, `"peak_concurrency"`, `"arrive_at"`, `"active_cycles"`} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Errorf("churn JSON artifact missing %q", want)
		}
	}
	// One churn point per (rate, SLO).
	if n := bytes.Count(blob, []byte(`"churn_rate"`)); n != len(figures.DefaultChurnRates())*2 {
		t.Errorf("churn section has %d points, want %d (rates x 2 SLOs)", n, len(figures.DefaultChurnRates())*2)
	}

	_, wide := runOnce("workers-4.json", 4)
	if !bytes.Equal(blob, wide) {
		t.Error("-workers 4 churn JSON differs from the serial reference run")
	}
}

// TestShardedCellGolden pins the sharding determinism contract at the
// command surface: a cell replayed with -shards 1 produces a JSON
// artifact byte-identical to the unsharded run (one shard IS the global
// batched replay), and a -shards 2 artifact is byte-stable across
// repeated runs — the shards replay on concurrent goroutines, so this is
// the parallel-merge determinism golden — and carries the shards echo in
// its tenant cell.
func TestShardedCellGolden(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{
			"-n", "30000",
			"-tenants", "4", "-pool", "2",
			"-json", path,
		}, extra...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("lbabench %v: %v", args, err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	flat := runOnce("flat.json")
	one := runOnce("one-shard.json", "-shards", "1")
	if !bytes.Equal(flat, one) {
		t.Error("-shards 1 JSON differs from the unsharded run")
	}
	if bytes.Contains(flat, []byte(`"shards"`)) {
		t.Error("unsharded artifact should not carry a shards echo")
	}

	two := runOnce("two-shards.json", "-shards", "2")
	again := runOnce("two-shards-again.json", "-shards", "2")
	if !bytes.Equal(two, again) {
		t.Error("repeated -shards 2 runs produced different JSON (parallel merge is not deterministic)")
	}
	if !bytes.Contains(two, []byte(`"shards": 2`)) {
		t.Error("sharded artifact is missing the shards echo")
	}
	if bytes.Equal(flat, two) {
		t.Error("-shards 2 artifact is identical to the unsharded run; static partitioning should be a visibly different scheduling point")
	}
}

// TestChurnCellRuns smoke-tests a churning single cell through the
// command surface: the per-tenant table gains the churn columns and the
// cell reports its peak concurrency.
func TestChurnCellRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.json")
	var out bytes.Buffer
	if err := run([]string{"-n", "30000", "-tenants", "3", "-pool", "2", "-churn", "4", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"churn rate 4.00", "peak concurrency"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("churn cell output missing %q", want)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"peak_concurrency"`, `"arrive_at"`, `"depart_at"`} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Errorf("churn cell artifact missing %q", want)
		}
	}
}

// TestAffinityFigureGolden is the golden-JSON determinism contract for
// the new affinity figure and its migration fields: -workers 1 and
// -workers 4 must produce byte-identical artifacts, and the artifact
// must carry the migration schema (penalty echo, per-tenant and
// per-cell migration counts and cold-serve cycles).
func TestAffinityFigureGolden(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string, workers int) (string, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out bytes.Buffer
		err := run([]string{
			"-n", "30000",
			"-fig", "affinity",
			"-tenants", "3", "-pool", "2",
			"-workers", strconv.Itoa(workers),
			"-json", path,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), blob
	}

	text, blob := runOnce("serial.json", 1)
	for _, want := range []string{"core affinity", "least-lag", "wfq", "affinity", "migrations", "cold-cycles"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("affinity figure output missing %q", want)
		}
	}
	for _, want := range []string{`"migration_penalty"`, `"migrations"`, `"cold_serve_cycles"`, `"tenant_cells"`} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Errorf("affinity JSON artifact missing %q", want)
		}
	}

	_, wide := runOnce("workers-4.json", 4)
	if !bytes.Equal(blob, wide) {
		t.Error("-workers 4 affinity JSON differs from the serial reference run")
	}
}

// TestSchedGoldenMatchesPR3 pins the migration model's zero-penalty
// no-op against a checked-in artifact captured from the pre-warmth
// scheduler tier (PR 3): with MigrationPenalty 0 every pre-affinity
// policy must reproduce its tenant cells, admission points, simulation
// rows and headline metrics byte-for-byte. (The artifact predates the
// affinity policy, so the new policy's cells and admission points are
// additive and excluded from the comparison; the deadline policy's
// channel-aware projection is also exercised here — at the default
// 5000-cycle deadline the exact projection makes identical choices.)
func TestSchedGoldenMatchesPR3(t *testing.T) {
	goldenBlob, err := os.ReadFile(filepath.Join("testdata", "sched_golden_pr3.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	// Mirrors the invocation that captured the golden.
	if err := run([]string{
		"-n", "30000", "-fig", "sched",
		"-tenants", "3", "-pool", "2",
		"-workers", "1", "-json", path,
	}, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var golden, got runner.Report
	if err := json.Unmarshal(goldenBlob, &golden); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}

	oldPolicies := map[string]bool{"round-robin": true, "least-lag": true,
		"deadline": true, "wfq": true, "priority": true}
	filterCells := func(cells []runner.TenantCell) []runner.TenantCell {
		var out []runner.TenantCell
		for _, c := range cells {
			if oldPolicies[c.Policy] {
				out = append(out, c)
			}
		}
		return out
	}
	filterAdmission := func(pts []runner.AdmissionPoint) []runner.AdmissionPoint {
		var out []runner.AdmissionPoint
		for _, p := range pts {
			if oldPolicies[p.Policy] {
				out = append(out, p)
			}
		}
		return out
	}
	filterMetrics := func(m map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			if !strings.Contains(k, "affinity") {
				out[k] = v
			}
		}
		return out
	}

	compare := func(name string, golden, got any) {
		t.Helper()
		a, err := json.Marshal(golden)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s diverged from the PR 3 golden at migration penalty 0:\ngolden: %.400s\ngot:    %.400s",
				name, a, b)
		}
	}
	compare("simulation rows", golden.Rows, got.Rows)
	compare("tenant cells", filterCells(golden.TenantCells), filterCells(got.TenantCells))
	compare("admission points", filterAdmission(golden.Admission), filterAdmission(got.Admission))
	compare("metrics", filterMetrics(golden.Metrics), filterMetrics(got.Metrics))
}
