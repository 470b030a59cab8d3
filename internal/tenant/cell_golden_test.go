package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestPoolCellGolden pins the lba-runner/v1 cell of two replays byte for
// byte: a churned cell (late arrivals, truncating departures) and a
// two-shard cell in which only one shard churns, so the merge backfills
// the churn accounting of the other. Both run with a migration penalty,
// so the migration fields are present too. The inputs are small
// synthetic profiles. The cell is the artifact format, so these bytes
// must not move when PoolResult's layout does.
func TestPoolCellGolden(t *testing.T) {
	gen := func(r *rand.Rand) []step { return burstTimeline(r, 8, 32, 500, 4, 16, 10, 40) }
	cases := []struct {
		name   string
		pool   PoolConfig
		n      int
		layout func(ps []*Profile)
	}{
		{
			name: "churned",
			pool: PoolConfig{Cores: 2, Policy: PolicyDeadline, DeadlineCycles: 2_000, MigrationPenalty: 40},
			n:    4,
			layout: func(ps []*Profile) {
				ps[1].Tenant.ArriveAt, ps[1].Tenant.DepartAfter = 4_000, 30_000
				ps[2].Tenant.ArriveAt = 9_000
				ps[3].Tenant.DepartAfter = 12_000
			},
		},
		{
			name: "sharded",
			pool: PoolConfig{Cores: 4, Policy: PolicyWFQ, Weights: []float64{2, 1}, MigrationPenalty: 80, Shards: 2},
			n:    5,
			layout: func(ps []*Profile) {
				ps[0].Tenant.ArriveAt, ps[0].Tenant.DepartAfter = 2_000, 15_000
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			profiles := synthSet(24, c.n, gen)
			c.layout(profiles)
			res, err := ReplayPool(context.Background(), profiles, c.pool)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.MarshalIndent(res.Cell(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, '\n')
			path := filepath.Join("testdata", "cell_"+c.name+".golden.json")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(golden, blob) {
				t.Errorf("cell diverged from %s:\ngot:\n%s", path, blob)
			}
		})
	}
}
