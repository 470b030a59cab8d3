package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
)

// tinyOptions runs a workload at a size that takes a second or two.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	pinned, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 7, seconds: 0.05, trace: trace,
		scale: 4000, setups: 2, workdir: t.TempDir(), refs: pinned}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, tab := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(tab.json) != len(tab.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", tab.name, len(tab.json), len(tab.code))
		}
		for i, m := range tab.json {
			if m.Name != tab.code[i].name || m.Unit != tab.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					tab.name, i, m.Name, m.Unit, tab.code[i].name, tab.code[i].unit)
			}
		}
	}
	for _, w := range bj.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", w.Name)
		}
	}
}

// TestTinyRunsPrintEveryMetric runs every workload, untraced and traced,
// and checks the report names every metric of BENCHMARK.json with its
// unit and passes its checks.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			rep, err := run(context.Background(), tinyOptions(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, want %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestCorruptedDigestFails pins a wrong digest for every profile and
// replay cell at the test's seed and scale: each check must be reported
// as a failure, not turned into a number.
func TestCorruptedDigestFails(t *testing.T) {
	for _, w := range []string{"cold-profile", "warm-replay"} {
		o := tinyOptions(t, w, false)
		bad := refs{Seed: o.seed, Scale: o.scale, Profiles: map[string]string{}, Cells: map[string]string{}}
		for _, tn := range coldTenants(o) {
			bad.Profiles[tn.Name] = "0000000000000000"
		}
		for _, c := range replayCells() {
			bad.Cells[c] = "0000000000000000"
		}
		o.refs = bad
		rep, err := run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted digests reported correct=%v failed=%d", w, rep.Correct, rep.Failed)
		}
	}
}

// TestUnexpectedStatusCounts makes the daemon answer every fifth pool
// read with 503: the run completes and counts those reads as failed.
func TestUnexpectedStatusCounts(t *testing.T) {
	o := tinyOptions(t, "lbad-churn", false)
	var reads, injected atomic.Int64
	o.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Path == "/v1/pool" && reads.Add(1)%5 == 0 {
				injected.Add(1)
				http.Error(w, "injected", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if injected.Load() == 0 {
		t.Fatal("no pool read reached the daemon")
	}
	if rep.Correct || rep.Failed != injected.Load() {
		t.Errorf("correct=%v failed=%d, %d statuses were injected", rep.Correct, rep.Failed, injected.Load())
	}
}
