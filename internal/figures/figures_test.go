package figures

import (
	"strings"
	"testing"

	"repro/internal/tenant"
)

// figOpts keeps the figure tests fast while staying past cache warm-up.
var figOpts = Options{Scale: 250_000}

// panels caches one run of each Figure 2 panel for all assertions below.
var panels = map[string][]Figure2Row{}

func panel(t *testing.T, lifeguard string) []Figure2Row {
	t.Helper()
	if rows, ok := panels[lifeguard]; ok {
		return rows
	}
	rows, err := Figure2Panel(lifeguard, figOpts)
	if err != nil {
		t.Fatal(err)
	}
	panels[lifeguard] = rows
	return rows
}

func TestFigure2PanelShapes(t *testing.T) {
	// The reproduction bands (EXPERIMENTS.md): who wins, by what factor,
	// and where the averages fall — not absolute cycle counts.
	cases := []struct {
		lifeguard            string
		benchmarks           int
		meanLBALo, meanLBAHi float64 // paper: 3.9 / 4.8 / 9.7
	}{
		{"AddrCheck", 7, 3.0, 5.2},
		{"TaintCheck", 7, 3.8, 6.5},
		{"LockSet", 2, 7.0, 12.0},
	}
	for _, c := range cases {
		t.Run(c.lifeguard, func(t *testing.T) {
			rows := panel(t, c.lifeguard)
			if len(rows) != c.benchmarks {
				t.Fatalf("panel has %d rows, want %d", len(rows), c.benchmarks)
			}
			s := Summarise(c.lifeguard, rows)
			if s.MeanLBA < c.meanLBALo || s.MeanLBA > c.meanLBAHi {
				t.Errorf("mean LBA slowdown %.2f outside [%.1f, %.1f]",
					s.MeanLBA, c.meanLBALo, c.meanLBAHi)
			}
			for _, r := range rows {
				if r.Valgrind < 9 || r.Valgrind > 85 {
					t.Errorf("%s: Valgrind slowdown %.1fX outside the paper's 10-85X band",
						r.Benchmark, r.Valgrind)
				}
				if r.Speedup < 3.5 || r.Speedup > 19 {
					t.Errorf("%s: LBA speedup %.1fX outside the paper's 4-19X band",
						r.Benchmark, r.Speedup)
				}
				if r.LBA <= 1 {
					t.Errorf("%s: LBA slowdown %.2f must exceed 1", r.Benchmark, r.LBA)
				}
			}
		})
	}
}

func TestLifeguardCostOrdering(t *testing.T) {
	// Paper: AddrCheck (3.9X) < TaintCheck (4.8X) < LockSet (9.7X).
	addr := Summarise("AddrCheck", panel(t, "AddrCheck")).MeanLBA
	taint := Summarise("TaintCheck", panel(t, "TaintCheck")).MeanLBA
	lock := Summarise("LockSet", panel(t, "LockSet")).MeanLBA
	if !(addr < taint && taint < lock) {
		t.Errorf("lifeguard cost ordering broken: addr=%.2f taint=%.2f lockset=%.2f",
			addr, taint, lock)
	}
}

func TestCharacterisationTable(t *testing.T) {
	rows, err := Characterisation(figOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("characterisation has %d rows, want 9", len(rows))
	}
	var sum float64
	for _, r := range rows {
		if r.Instructions == 0 || r.CPI < 1 {
			t.Errorf("%s: implausible characterisation %+v", r.Benchmark, r)
		}
		sum += r.MemRefFraction
	}
	avg := sum / float64(len(rows))
	if avg < 0.35 || avg > 0.62 {
		t.Errorf("suite memory-reference average %.2f too far from the paper's 0.51", avg)
	}
}

func TestCompressionTable(t *testing.T) {
	// Compression needs a longer run than the slowdown tests: the cold
	// first lap of mcf's pointer-chase cycle is all literals, and the
	// paper's <1 B/instruction is a steady-state (209M-instruction) claim.
	rows, err := Compression(Options{Scale: 700_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BytesPerRecord >= 1.0 {
			t.Errorf("%s: %.3f bytes/record — the paper claims < 1 byte/instruction",
				r.Benchmark, r.BytesPerRecord)
		}
		if r.Ratio < 16 {
			t.Errorf("%s: compression ratio %.1f looks too low", r.Benchmark, r.Ratio)
		}
	}
}

func TestBufferSweepMonotone(t *testing.T) {
	sizes := []uint64{256, 4 << 10, 64 << 10, 1 << 20}
	rows, err := BufferSweep("gzip", sizes, figOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].StallCycles > rows[i-1].StallCycles {
			t.Errorf("stalls must not grow with buffer size: %d B -> %d cycles, %d B -> %d cycles",
				rows[i-1].CapacityBytes, rows[i-1].StallCycles,
				rows[i].CapacityBytes, rows[i].StallCycles)
		}
	}
}

func TestCompressionAblationShape(t *testing.T) {
	rows, err := CompressionAblation("gzip", figOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[0].Compression || rows[1].Compression {
		t.Fatal("expected [compressed, uncompressed] rows")
	}
	if rows[1].LogBytes < rows[0].LogBytes*8 {
		t.Errorf("uncompressed log (%d B) should be far larger than compressed (%d B)",
			rows[1].LogBytes, rows[0].LogBytes)
	}
}

func TestFilterAblationShape(t *testing.T) {
	rows, err := FilterAblation("mcf", figOpts)
	if err != nil {
		t.Fatal(err)
	}
	unfiltered, filtered := rows[0], rows[1]
	if filtered.Dropped == 0 {
		t.Error("heap-only filter should drop non-heap records")
	}
	if filtered.LgCycles >= unfiltered.LgCycles {
		t.Errorf("filtering must cut lifeguard load: %d vs %d",
			filtered.LgCycles, unfiltered.LgCycles)
	}
}

func TestParallelSweepShape(t *testing.T) {
	rows, err := ParallelSweep("tidy", []int{1, 2, 4}, figOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows[len(rows)-1].Slowdown > rows[0].Slowdown {
		t.Errorf("parallel lifeguards must not slow the system down: %v", rows)
	}
}

func TestSyscallStallTableShape(t *testing.T) {
	rows, err := SyscallStallTable(figOpts)
	if err != nil {
		t.Fatal(err)
	}
	var anyDrains bool
	for _, r := range rows {
		if r.DrainEvents > 0 {
			anyDrains = true
		}
		if r.DrainShare < 0 || r.DrainShare > 1 {
			t.Errorf("%s: drain share %.2f out of range", r.Benchmark, r.DrainShare)
		}
	}
	if !anyDrains {
		t.Error("suite contains syscalls; drains must occur")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale <= 0 || o.Seed == 0 || o.Threads <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.coreConfig().Channel.CapacityBytes == 0 {
		t.Error("core config should default to the paper's design point")
	}
}

func TestPipelineAblationShape(t *testing.T) {
	rows, err := PipelineAblation("bc", figOpts)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, serial := rows[0], rows[1]
	if !pipelined.Pipelined || serial.Pipelined {
		t.Fatal("expected [pipelined, serialised] rows")
	}
	if serial.LgCycles <= pipelined.LgCycles {
		t.Errorf("serialised dispatch must cost more lifeguard cycles: %d vs %d",
			serial.LgCycles, pipelined.LgCycles)
	}
	if serial.Slowdown < pipelined.Slowdown {
		t.Errorf("serialised dispatch must not be faster: %.2f vs %.2f",
			serial.Slowdown, pipelined.Slowdown)
	}
}

// TestAffinitySweepBeatsLeastLag is the core-affinity figure's headline
// claim: once migrations cost something, the warmth-aware policy beats
// greedy least-lag on mean slowdown at every non-zero penalty, and at
// penalty zero every policy is accounting-free (the pre-warmth baseline).
func TestAffinitySweepBeatsLeastLag(t *testing.T) {
	set, err := TenantSet(4, Options{Scale: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	base := tenant.PoolConfig{Cores: 2}
	cells, err := AffinitySweep(set, AffinityPenalties(), base, Options{Scale: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(AffinityPolicies())*len(AffinityPenalties()) {
		t.Fatalf("sweep has %d cells, want %d", len(cells), len(AffinityPolicies())*len(AffinityPenalties()))
	}
	mean := map[string]map[uint64]float64{}
	for _, r := range cells {
		if mean[r.Policy] == nil {
			mean[r.Policy] = map[uint64]float64{}
		}
		mean[r.Policy][r.MigrationPenalty] = r.MeanSlowdown
		if r.MigrationPenalty == 0 && (r.Migrations != 0 || r.ColdServeCycles != 0) {
			t.Errorf("%s at penalty 0: migration accounting must be off (%d migrations, %d cold cycles)",
				r.Policy, r.Migrations, r.ColdServeCycles)
		}
		if r.MigrationPenalty > 0 && r.ColdServeCycles == 0 {
			t.Errorf("%s at penalty %d: no cold cycles charged — the model is not engaged",
				r.Policy, r.MigrationPenalty)
		}
	}
	for _, penalty := range AffinityPenalties() {
		if penalty == 0 {
			continue
		}
		aff, ll := mean[tenant.PolicyAffinity][penalty], mean[tenant.PolicyLeastLag][penalty]
		if aff >= ll {
			t.Errorf("penalty %d: affinity mean slowdown %.2fX does not beat least-lag's %.2fX",
				penalty, aff, ll)
		}
	}
	out := RenderAffinity(cells)
	for _, want := range []string{"affinity", "least-lag", "wfq", "migration penalty"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
	if RenderAffinity(nil) != "" {
		t.Error("empty sweep renders empty")
	}
}

func TestRenderFigure2(t *testing.T) {
	rows := []Figure2Row{
		{Benchmark: "bc", Valgrind: 30, LBA: 5, Speedup: 6},
		{Benchmark: "gs", Valgrind: 10, LBA: 2, Speedup: 5},
	}
	out := RenderFigure2("AddrCheck", rows)
	if !strings.Contains(out, "bc") || !strings.Contains(out, "30.0X") {
		t.Errorf("chart missing labels:\n%s", out)
	}
	// The longest bar belongs to the largest slowdown.
	lines := strings.Split(out, "\n")
	var bcBar, gsBar int
	for i, l := range lines {
		if strings.HasPrefix(l, "bc") {
			bcBar = strings.Count(lines[i], "█")
		}
		if strings.HasPrefix(l, "gs") {
			gsBar = strings.Count(lines[i], "█")
		}
	}
	if bcBar <= gsBar {
		t.Errorf("bar lengths must follow slowdowns: bc=%d gs=%d", bcBar, gsBar)
	}
	if RenderFigure2("x", nil) != "" {
		t.Error("empty panel renders empty")
	}
}

// TestChurnSweepAdmitsMoreUnderChurn is the churn figure's headline
// claim: spreading arrivals out can only grow (never shrink) the
// admissible tenant count, and once windows are fully disjoint the
// admitted population's peak channel concurrency collapses below the
// tenant count — the provisioning gap churn-aware planning exists to
// expose.
func TestChurnSweepAdmitsMoreUnderChurn(t *testing.T) {
	opts := Options{Scale: 40_000}
	base := tenant.PoolConfig{Cores: 2}
	rates := []float64{0, 8}
	slos := DefaultAdmissionSLOs()
	points, results, err := ChurnSweep(base, rates, slos, 4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rates)*len(slos) {
		t.Fatalf("sweep has %d points, want %d", len(points), len(rates)*len(slos))
	}
	bySLO := map[float64]map[float64]tenant.AdmissionPoint{}
	for _, p := range points {
		if bySLO[p.SLO] == nil {
			bySLO[p.SLO] = map[float64]tenant.AdmissionPoint{}
		}
		bySLO[p.SLO][p.ChurnRate] = p
		if p.Searched != 4 {
			t.Errorf("point %+v searched %d, want 4", p, p.Searched)
		}
		if p.MaxTenants > 0 && p.PeakAtMax < 1 {
			t.Errorf("point %+v admits tenants but reports no peak concurrency", p)
		}
	}
	for _, slo := range slos {
		fixed, churned := bySLO[slo][0], bySLO[slo][8]
		if churned.MaxTenants < fixed.MaxTenants {
			t.Errorf("SLO %g: rate 8 admits %d tenants, fewer than rate 0's %d", slo, churned.MaxTenants, fixed.MaxTenants)
		}
		if churned.MaxTenants > 1 && churned.PeakAtMax >= churned.MaxTenants {
			t.Errorf("SLO %g: disjoint windows still peak at %d of %d tenants", slo, churned.PeakAtMax, churned.MaxTenants)
		}
	}
	// The representative cells carry the churn schema for the artifact.
	for _, res := range results {
		if res.Churned && res.PeakConcurrency < 1 {
			t.Errorf("churned cell reports peak concurrency %d", res.PeakConcurrency)
		}
	}
}
