package core

import (
	"runtime"
	"testing"

	"repro/internal/prog"
	"repro/internal/workloads"
)

// nullObserver discards a profile's transport timeline.
type nullObserver struct{}

func (nullObserver) Record(appCycle, bits, lgCost uint64) {}
func (nullObserver) Syscall(appCycle uint64)              {}

// mallocs returns the heap allocations f makes and the instructions it
// reports retiring.
func mallocs(t *testing.T, f func() (*Result, error)) (allocs, instrs uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := f()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, res.Instructions
}

// The per-record capture → compress → dispatch path allocates nothing:
// doubling a run's instruction count may add at most one allocation per
// thousand extra instructions (page and map growth of the simulated and
// shadow memories), never one per record.
func TestProfileAllocsDoNotGrowWithInstructions(t *testing.T) {
	// Scales at which each workload's instruction count grows with its
	// scale (some generators hold a floor below that).
	for _, tc := range []struct {
		lifeguard, workload string
		scale               int
	}{
		{"AddrCheck", "gzip", 80_000},
		{"TaintCheck", "tidy", 80_000},
		{"LockSet", "water", 40_000},
	} {
		spec, err := workloads.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		p1 := spec.Build(workloads.Config{Scale: tc.scale})
		p2 := spec.Build(workloads.Config{Scale: 2 * tc.scale})
		runs := []struct {
			name string
			run  func(p *prog.Program) (*Result, error)
		}{
			{"ProfileLBA", func(p *prog.Program) (*Result, error) {
				return ProfileLBA(p, tc.lifeguard, DefaultConfig(), nullObserver{})
			}},
			{"RunLBA", func(p *prog.Program) (*Result, error) {
				return RunLBA(p, tc.lifeguard, DefaultConfig())
			}},
		}
		for _, r := range runs {
			t.Run(tc.lifeguard+"/"+r.name, func(t *testing.T) {
				r.run(p1) // warm package-level state out of the count
				a1, n1 := mallocs(t, func() (*Result, error) { return r.run(p1) })
				a2, n2 := mallocs(t, func() (*Result, error) { return r.run(p2) })
				if n2 <= n1 {
					t.Fatalf("doubling the scale retired %d instructions, not more than %d", n2, n1)
				}
				t.Logf("%s on %s: %d allocs / %d instrs, %d allocs / %d instrs", r.name, tc.workload, a1, n1, a2, n2)
				if a2 > a1 && a2-a1 > (n2-n1)/1000 {
					t.Errorf("%d extra instructions cost %d extra allocations; the per-record path must not allocate",
						n2-n1, a2-a1)
				}
			})
		}
	}
}
