package tenant_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/tenant"
)

// corpusMigrationPenalty is the migration penalty a corpus row without
// one is also compared at.
const corpusMigrationPenalty = 320

// TestCorpusPoolsMatchReference replays every unsharded pool row of the
// checked-in scenario corpus (corpus/runlist.csv) twice — through
// Engine.RunPool, the path the harness and the commands take, and through
// the per-record reference on the same profiles — and requires the two
// PoolResults to be deep-equal. Each row's population and pool are built
// by harness.Scenario.TenantSet at the harness's thread count, so this is
// exactly what lbaharness replays for the row. A row with the migration
// model off charges nothing, so it is compared once more with the model
// on, which puts the migration accounting under the comparison at corpus
// scale. Sharded rows are a different scheduling point, with no
// per-record reference.
func TestCorpusPoolsMatchReference(t *testing.T) {
	scenarios, err := harness.LoadRunlist("../../corpus/runlist.csv")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := tenant.NewEngine(0, nil)
	rows := 0
	for _, s := range scenarios {
		if s.Kind != harness.KindPool || s.Shards > 1 {
			continue
		}
		rows++
		t.Run(s.ID, func(t *testing.T) {
			set, pool, err := s.TenantSet(harness.DefaultThreads)
			if err != nil {
				t.Fatal(err)
			}
			profiles, err := eng.Profiles(ctx, set)
			if err != nil {
				t.Fatal(err)
			}
			pools := []tenant.PoolConfig{pool}
			if pool.MigrationPenalty == 0 {
				pool.MigrationPenalty = corpusMigrationPenalty
				pools = append(pools, pool)
			}
			for _, pool := range pools {
				got, err := eng.RunPool(ctx, set, pool)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tenant.ReplayReference(ctx, profiles, pool)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					a, _ := json.Marshal(got)
					b, _ := json.Marshal(want)
					t.Errorf("migration penalty %d: RunPool and the per-record reference diverge\nRunPool:    %s\nper-record: %s",
						pool.MigrationPenalty, a, b)
				}
			}
		})
	}
	if rows == 0 {
		t.Fatal("the corpus holds no unsharded pool row")
	}
}
