package tenant

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// benchSuiteProfiles builds the n-tenant benchmark population once: the
// standard suite at the given scale, profiled uncontended. Profiles are
// immutable, so every benchmark iteration replays the same inputs.
func benchSuiteProfiles(b *testing.B, n, scale int) []*Profile {
	b.Helper()
	eng := NewEngine(0, nil)
	set, err := FromSuite(n, workloads.Config{Scale: scale}, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	profiles := make([]*Profile, n)
	for i, t := range set {
		p, err := eng.Profile(context.Background(), t)
		if err != nil {
			b.Fatal(err)
		}
		profiles[i] = p
	}
	return profiles
}

// replayFunc is a replay in ReplayPool's signature: ReplayPool or the
// per-record reference, replayReference.
type replayFunc func(context.Context, []*Profile, PoolConfig) (*PoolResult, error)

// benchReplay measures one (policy, replay path) cell: wall time per
// replay with allocation counts, plus the replayed record count as a
// metric so ns/record is derivable from the output.
func benchReplay(b *testing.B, profiles []*Profile, policy string, replay replayFunc) {
	pool := PoolConfig{Cores: 2, Policy: policy, MigrationPenalty: 320}
	var records uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay(context.Background(), profiles, pool)
		if err != nil {
			b.Fatal(err)
		}
		records = 0
		for _, tr := range res.Tenants {
			records += tr.Records
		}
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkReplay pins the per-policy replay cost on the 4-tenant suite
// for the production path and, for comparison, the per-record reference.
// CI's bench job and `make bench` derive the BENCH_replay.json trajectory
// from the batched cells via cmd/lbabench -bench replay; see
// docs/performance.md.
func BenchmarkReplay(b *testing.B) {
	profiles := benchSuiteProfiles(b, 4, 300_000)
	for _, path := range []struct {
		name   string
		replay replayFunc
	}{
		{"batched", ReplayPool},
		{"per-record", replayReference},
	} {
		b.Run(path.name, func(b *testing.B) {
			for _, policy := range Policies() {
				b.Run(policy, func(b *testing.B) {
					benchReplay(b, profiles, policy, path.replay)
				})
			}
		})
	}
}
