package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// A run takes its VPC predictor bank (8 MB) from the pool a previous run
// returned it to, and RunLBA takes its log channel, with the ring an
// earlier run grew to about 4 MB, from logbuf's pool, so once one run has
// warmed the pools, neither ProfileLBA nor RunLBA allocates a bank or
// regrows a ring. The collector is paused so the pools are not emptied
// between the runs, and the test runs on one P: a sync.Pool Get never
// takes another P's private slot, so a goroutine moved to another P
// between the Put and the Get would miss the pooled bank or channel on a
// busy machine.
func TestProfileReusesPredictorBank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop banks at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, err := workloads.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Build(workloads.Config{Scale: 5_000})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, r := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"ProfileLBA", func() (*Result, error) { return ProfileLBA(p, "AddrCheck", DefaultConfig(), nullObserver{}) }},
		{"RunLBA", func() (*Result, error) { return RunLBA(p, "AddrCheck", DefaultConfig()) }},
	} {
		if _, err := r.run(); err != nil { // warm the pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("a second %s allocated %d bytes", r.name, got)
		if got >= 1<<20 {
			t.Errorf("a second %s allocated %d bytes; a reused predictor bank and log ring keep it under 1 MiB", r.name, got)
		}
	}
}

// timeline records a profile's transport timeline.
type timeline struct{ records, syscalls []uint64 }

func (tl *timeline) Record(appCycle, bits, lgCost uint64) {
	tl.records = append(tl.records, appCycle, bits, lgCost)
}
func (tl *timeline) Syscall(appCycle uint64) { tl.syscalls = append(tl.syscalls, appCycle) }

// Profiles running at once each take their own bank from the pool, and
// a bank handed from one tenant's run to another's carries nothing over:
// concurrent runs, repeated, equal the serial ones. Run under -race.
func TestPredictorBankPoolConcurrentProfiles(t *testing.T) {
	type outcome struct {
		res *Result
		tl  *timeline
	}
	cases := []struct{ workload, lifeguard string }{
		{"gzip", "AddrCheck"},
		{"mcf", "TaintCheck"},
	}
	profile := func(i int) outcome {
		spec, err := workloads.ByName(cases[i].workload)
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		tl := &timeline{}
		res, err := ProfileLBA(spec.Build(workloads.Config{Scale: 4_000}), cases[i].lifeguard, DefaultConfig(), tl)
		if err != nil {
			t.Error(err)
		}
		return outcome{res, tl}
	}
	serial := make([]outcome, len(cases))
	for i := range cases {
		serial[i] = profile(i)
	}
	for round := 0; round < 4; round++ {
		got := make([]outcome, len(cases))
		var wg sync.WaitGroup
		for i := range cases {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = profile(i)
			}(i)
		}
		wg.Wait()
		for i, c := range cases {
			if !reflect.DeepEqual(got[i], serial[i]) {
				t.Fatalf("round %d: %s/%s profiled concurrently differs from its serial run", round, c.workload, c.lifeguard)
			}
		}
	}
}
