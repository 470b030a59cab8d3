package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// fuzzReader decodes the fuzzer's byte stream into structured choices.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) remaining() int { return len(r.data) - r.pos }

// syntheticProfiles decodes fuzz input into 1-3 tenants with arbitrary
// but well-formed timelines: per-tenant monotone non-decreasing cycles, a
// mix of record and drain steps, channel capacities small enough to
// exercise backpressure, and arrival/departure windows (valid by
// construction: a departure byte of 0 mod 4 means "never departs", any
// other value places the departure strictly after the arrival). It
// mirrors what buildProfile emits without running any workload, which is
// exactly what lets the fuzzer explore timeline and churn shapes no
// benchmark produces.
func syntheticProfiles(data []byte) []*Profile {
	r := &fuzzReader{data: data}
	nTenants := 1 + int(r.next())%3
	profiles := make([]*Profile, 0, nTenants)
	for ti := 0; ti < nTenants; ti++ {
		nSteps := int(r.next()) % 64
		if rem := r.remaining() / 4; nSteps > rem {
			nSteps = rem
		}
		var steps []step
		var cycle uint64
		var records, logBits, cost uint64
		for si := 0; si < nSteps; si++ {
			cycle += uint64(r.next())
			if kind := r.next(); kind%8 == 0 {
				steps = append(steps, step{cycle: cycle, bits: drainMark})
				r.next() // keep the stream aligned on 4 bytes per step
				continue
			}
			s := step{cycle: cycle, bits: uint32(r.next()) + 1, cost: uint32(r.next()) % 64}
			steps = append(steps, s)
			records++
			logBits += uint64(s.bits)
			cost += uint64(s.cost)
		}
		appCycles := cycle + uint64(r.next())
		cfg := core.DefaultConfig()
		// 64 B .. 8 KiB: small enough that fat records stall.
		cfg.Channel.CapacityBytes = 64 << (r.next() % 8)
		arrive := uint64(r.next()) * 64
		var depart uint64
		if d := r.next(); d%4 != 0 {
			depart = arrive + 1 + uint64(d)*64
		}
		tl := encodedTimeline(steps)
		profiles = append(profiles, &Profile{
			Tenant: Tenant{Name: fmt.Sprintf("fuzz-%d", ti), Benchmark: "fuzz", Config: cfg,
				ArriveAt: arrive, DepartAfter: depart},
			tl:            tl,
			Result:        &core.Result{AppCycles: appCycles, WallCycles: appCycles, Records: records, LogBits: logBits, LgCycles: cost},
			Base:          &core.Result{WallCycles: appCycles + 1},
			DedicatedWall: dedicatedWall(tl, cfg.Channel, appCycles),
		})
	}
	return profiles
}

// truncatedTotals sums the record count and lifeguard cost of the steps
// inside each profile's active window — what the churn-aware replay must
// conserve.
func truncatedTotals(profiles []*Profile) (records, cost uint64) {
	for _, p := range profiles {
		steps := materialise(p.tl)
		limit := churnLimit(steps, p.Tenant.ArriveAt, p.Tenant.DepartAfter)
		for _, s := range steps[:limit] {
			if s.bits != drainMark {
				records++
				cost += uint64(s.cost)
			}
		}
	}
	return records, cost
}

// checkReplayInvariants asserts everything the scheduler contract
// promises of one replay result: tenant/core vector shapes, conservation
// of work (pool busy cycles equal the *active-window* timelines' total
// lifeguard cost plus the charged migration cycles) and of records across
// churn truncation, monotone clocks (wall >= app >= uncontended app),
// pool utilisation within [0, 1], ordered lag quantiles, migration
// accounting bounds, churn accounting bounds (peak concurrency within
// [0, tenants], full drain before release, churn fields absent on
// fixed-set replays), and the warmth-conservation invariants (every
// warmth in [0, 1], per-core warmth totals <= 1). totalCost is the
// truncated timelines' lifeguard cost (truncatedTotals).
func checkReplayInvariants(t *testing.T, policy string, profiles []*Profile, pool PoolConfig, res *PoolResult, totalCost uint64) {
	t.Helper()
	if len(res.Tenants) != len(profiles) {
		t.Fatalf("%s: %d tenants in, %d results out", policy, len(profiles), len(res.Tenants))
	}
	var busy uint64
	if len(res.CoreBusyCycles) != pool.Cores {
		t.Fatalf("%s: busy vector has %d entries, want %d", policy, len(res.CoreBusyCycles), pool.Cores)
	}
	for _, b := range res.CoreBusyCycles {
		busy += b
	}
	if busy != totalCost+res.ColdServeCycles {
		t.Errorf("%s: pool did %d cycles of work, timelines hold %d + %d charged (conservation)",
			policy, busy, totalCost, res.ColdServeCycles)
	}
	if res.Utilisation < 0 || res.Utilisation > 1 {
		t.Errorf("%s: utilisation %f outside [0, 1]", policy, res.Utilisation)
	}
	churned := false
	for _, p := range profiles {
		if p.Tenant.ArriveAt > 0 || p.Tenant.DepartAfter > 0 {
			churned = true
		}
	}
	if res.Churned != churned {
		t.Errorf("%s: Churned = %v, input says %v", policy, res.Churned, churned)
	}
	if res.PeakConcurrency < 0 || res.PeakConcurrency > len(profiles) {
		t.Errorf("%s: peak concurrency %d outside [0, %d]", policy, res.PeakConcurrency, len(profiles))
	}
	var maxWall, migrations, cold uint64
	for i, tr := range res.Tenants {
		p := profiles[i]
		arrive, depart := p.Tenant.ArriveAt, p.Tenant.DepartAfter
		steps := materialise(p.tl)
		limit := churnLimit(steps, arrive, depart)
		var windowRecords uint64
		for _, s := range steps[:limit] {
			if s.bits != drainMark {
				windowRecords++
			}
		}
		if tr.Records != windowRecords {
			t.Errorf("%s/%d: result reports %d records, active window holds %d (conservation across churn)",
				policy, i, tr.Records, windowRecords)
		}
		if !churned && (tr.ArriveAtCycles != 0 || tr.DepartAtCycles != 0 || tr.ActiveCycles != 0) {
			t.Errorf("%s/%d: churn accounting (%d, %d, %d) on a fixed-set replay",
				policy, i, tr.ArriveAtCycles, tr.DepartAtCycles, tr.ActiveCycles)
		}
		if depart == 0 && tr.DepartAtCycles != 0 {
			t.Errorf("%s/%d: resident tenant reports a departure at %d", policy, i, tr.DepartAtCycles)
		}
		// A departing tenant always releases; the release cycle is only
		// provably non-zero once anything pins the clock past 0 (a late
		// arrival or at least one served record).
		if depart > 0 && (arrive > 0 || windowRecords > 0) && tr.DepartAtCycles == 0 {
			t.Errorf("%s/%d: departing tenant never released its channel", policy, i)
		}
		if tr.WallCycles < arrive {
			t.Errorf("%s/%d: wall %d before the tenant's arrival at %d", policy, i, tr.WallCycles, arrive)
		}
		if depart == 0 {
			if tr.AppCycles < p.Result.AppCycles {
				t.Errorf("%s/%d: contended app clock %d ran backwards from uncontended %d",
					policy, i, tr.AppCycles, p.Result.AppCycles)
			}
		}
		if tr.WallCycles < tr.AppCycles {
			t.Errorf("%s/%d: wall %d < app %d", policy, i, tr.WallCycles, tr.AppCycles)
		}
		if tr.LagP50Cycles > tr.LagP95Cycles || tr.LagP95Cycles > tr.MaxLagCycles {
			t.Errorf("%s/%d: lag quantiles out of order: p50=%d p95=%d max=%d",
				policy, i, tr.LagP50Cycles, tr.LagP95Cycles, tr.MaxLagCycles)
		}
		if pool.MigrationPenalty == 0 && (tr.Migrations != 0 || tr.ColdServeCycles != 0) {
			t.Errorf("%s/%d: migration accounting (%d migrations, %d cold cycles) with the model off",
				policy, i, tr.Migrations, tr.ColdServeCycles)
		}
		if tr.Migrations > tr.Records {
			t.Errorf("%s/%d: %d migrations over %d records", policy, i, tr.Migrations, tr.Records)
		}
		if tr.ColdServeCycles > pool.MigrationPenalty*tr.Records {
			t.Errorf("%s/%d: cold-serve cycles %d exceed penalty*records %d",
				policy, i, tr.ColdServeCycles, pool.MigrationPenalty*tr.Records)
		}
		migrations += tr.Migrations
		cold += tr.ColdServeCycles
		if tr.WallCycles > maxWall {
			maxWall = tr.WallCycles
		}
	}
	if res.Migrations != migrations || res.ColdServeCycles != cold {
		t.Errorf("%s: cell migration totals (%d, %d) != tenant sums (%d, %d)",
			policy, res.Migrations, res.ColdServeCycles, migrations, cold)
	}
	if res.MakespanCycles != maxWall {
		t.Errorf("%s: makespan %d != max wall %d", policy, res.MakespanCycles, maxWall)
	}
	if len(res.CoreWarmth) != pool.Cores {
		t.Fatalf("%s: warmth matrix has %d cores, want %d", policy, len(res.CoreWarmth), pool.Cores)
	}
	for c, row := range res.CoreWarmth {
		var sum float64
		for ti, w := range row {
			if w < 0 || w > 1 {
				t.Errorf("%s: warmth[%d][%d] = %g outside [0, 1]", policy, c, ti, w)
			}
			sum += w
		}
		// One core holds at most one working set's worth of warmth: the
		// gain/decay factors share a half-life, so per-core totals start
		// at 0 and converge toward 1 from below (warmth conservation).
		if sum > 1+1e-9 {
			t.Errorf("%s: core %d warmth total %g > 1 (conservation)", policy, c, sum)
		}
	}
}

// The churn corpus seeds, shared with the checked-in fuzz corpus under
// testdata/fuzz/FuzzReplayInvariants (TestChurnCorpusSeeds pins both the
// bytes and the decoded shapes). Each tenant decodes as: step count, 4
// bytes per record step (delta, kind, bits, cost; kind%8 == 0 is a
// 3-byte drain), an app-cycle pad, a channel-capacity byte, then the
// arrival byte (x64 cycles) and the departure byte (0 mod 4 = resident,
// else strictly after the arrival).
var (
	// Three tenants arriving at 0, 512 and 1024, none departing.
	churnSeedStaggered = []byte{2,
		2, 10, 1, 5, 3, 10, 1, 6, 2, 20, 3, 0, 0,
		2, 10, 1, 5, 3, 10, 1, 6, 2, 20, 3, 8, 0,
		2, 10, 1, 5, 3, 10, 1, 6, 2, 20, 3, 16, 0}
	// Three tenants all arriving at 0 and all departing at cycle 129,
	// truncating their second record (mass departure).
	churnSeedMassDeparture = []byte{2,
		2, 100, 1, 5, 3, 200, 1, 6, 2, 20, 3, 0, 2,
		2, 100, 1, 5, 3, 200, 1, 6, 2, 20, 3, 0, 2,
		2, 100, 1, 5, 3, 200, 1, 6, 2, 20, 3, 0, 2}
	// One tenancy in [0, 129], then a second arrival of the same shape at
	// 256 departing at 321 (arrive-depart-rearrive).
	churnSeedRearrive = []byte{1,
		2, 10, 1, 5, 3, 10, 1, 6, 2, 20, 3, 0, 2,
		2, 10, 1, 5, 3, 10, 1, 6, 2, 20, 3, 4, 1}
)

// TestChurnCorpusSeeds pins the churn corpus to its intent: the
// checked-in corpus files hold exactly these byte streams, and the
// streams decode into the churn shapes they are named for.
func TestChurnCorpusSeeds(t *testing.T) {
	cases := []struct {
		file string
		data []byte
	}{
		{"churn-staggered-arrivals", churnSeedStaggered},
		{"churn-mass-departure", churnSeedMassDeparture},
		{"churn-rearrive", churnSeedRearrive},
	}
	for _, c := range cases {
		blob, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReplayInvariants", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(blob, []byte(fmt.Sprintf("%q", c.data))) {
			t.Errorf("corpus file %s does not hold the expected seed bytes", c.file)
		}
	}

	staggered := syntheticProfiles(churnSeedStaggered)
	if len(staggered) != 3 {
		t.Fatalf("staggered seed decodes %d tenants, want 3", len(staggered))
	}
	for i, want := range []uint64{0, 512, 1024} {
		if p := staggered[i]; p.Tenant.ArriveAt != want || p.Tenant.DepartAfter != 0 {
			t.Errorf("staggered tenant %d window [%d, %d], want arrival %d, resident",
				i, p.Tenant.ArriveAt, p.Tenant.DepartAfter, want)
		}
	}

	mass := syntheticProfiles(churnSeedMassDeparture)
	if len(mass) != 3 {
		t.Fatalf("mass-departure seed decodes %d tenants, want 3", len(mass))
	}
	for i, p := range mass {
		if p.Tenant.ArriveAt != 0 || p.Tenant.DepartAfter != 129 {
			t.Errorf("mass tenant %d window [%d, %d], want [0, 129]", i, p.Tenant.ArriveAt, p.Tenant.DepartAfter)
		}
		if limit := churnLimit(materialise(p.tl), 0, 129); limit != 1 {
			t.Errorf("mass tenant %d truncates to %d steps, want 1", i, limit)
		}
	}

	re := syntheticProfiles(churnSeedRearrive)
	if len(re) != 2 {
		t.Fatalf("rearrive seed decodes %d tenants, want 2", len(re))
	}
	if re[0].Tenant.ArriveAt != 0 || re[0].Tenant.DepartAfter != 129 ||
		re[1].Tenant.ArriveAt != 256 || re[1].Tenant.DepartAfter != 321 {
		t.Errorf("rearrive windows [%d, %d] and [%d, %d], want [0, 129] then [256, 321]",
			re[0].Tenant.ArriveAt, re[0].Tenant.DepartAfter, re[1].Tenant.ArriveAt, re[1].Tenant.DepartAfter)
	}
}

// FuzzReplayInvariants drives the replay merge with synthetic tenant
// timelines — including arrival/departure windows — under every
// registered scheduling policy, with the migration model off and on, and
// asserts the invariants the scheduler contract promises: the merge
// terminates, work and warmth are conserved, records are conserved
// across churn truncation, no tenant is served before it arrives,
// departing tenants fully drain before releasing their channel, peak
// concurrency stays within the configured tenant count, clocks are
// monotone, utilisation stays within [0, 1], migration accounting is
// bounded, a second replay of the same inputs is deep-equal
// (determinism), and for the fixed-assignment round-robin policy the wall
// clocks are monotone in the migration penalty.
func FuzzReplayInvariants(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte{2, 40, 1, 1, 10, 3, 7, 255, 63, 0, 8, 0, 0, 200, 9, 200, 12})
	f.Add([]byte("pppppppppppppppppppppppppppppppp")) // drain-heavy: 'p'%8 == 0
	f.Add([]byte{0})
	f.Add(churnSeedStaggered)
	f.Add(churnSeedMassDeparture)
	f.Add(churnSeedRearrive)
	f.Fuzz(func(t *testing.T, data []byte) {
		profiles := syntheticProfiles(data)
		_, totalCost := truncatedTotals(profiles)
		var first, mid byte
		if len(data) > 0 {
			first, mid = data[0], data[len(data)/2]
		}
		cores := 1 + int(mid)%4
		penalty := 1 + uint64(first)*8
		// A 256-byte warmth half-life (16x shorter than the default) makes
		// warmth swing within these short timelines.
		short := replayOpts{halfLifeBytes: 256}
		for _, policy := range Policies() {
			for _, migration := range []uint64{0, penalty} {
				pool := PoolConfig{
					Cores:            cores,
					Policy:           policy,
					Weights:          []float64{2, 1},
					DeadlineCycles:   1 + uint64(first)*16,
					MigrationPenalty: migration,
				}
				// Observe service as it unfolds: no record is produced
				// before its tenant arrives, and the lifeguard-side finish
				// of every record is known so channel release can be
				// checked against the drain rule below.
				maxFinish := make([]uint64, len(profiles))
				res, err := replayMode(context.Background(), profiles, pool, replayOpts{halfLifeBytes: short.halfLifeBytes, obs: func(tenant, core int, req Request, charge, finish uint64) {
					if req.Ready < profiles[tenant].Tenant.ArriveAt {
						t.Errorf("%s: tenant %d served at %d before its arrival at %d",
							policy, tenant, req.Ready, profiles[tenant].Tenant.ArriveAt)
					}
					if finish > maxFinish[tenant] {
						maxFinish[tenant] = finish
					}
				}})
				if err != nil {
					t.Fatalf("%s: replay failed on valid input: %v", policy, err)
				}
				for i, tr := range res.Tenants {
					if tr.DepartAtCycles > 0 && tr.DepartAtCycles < maxFinish[i] {
						t.Errorf("%s/%d: channel released at %d before its last record finished at %d (full drain)",
							policy, i, tr.DepartAtCycles, maxFinish[i])
					}
				}
				checkReplayInvariants(t, policy, profiles, pool, res, totalCost)

				again, err := replayMode(context.Background(), profiles, pool, short)
				if err != nil {
					t.Fatalf("%s: second replay failed: %v", policy, err)
				}
				if !reflect.DeepEqual(res, again) {
					a, _ := json.Marshal(res)
					b, _ := json.Marshal(again)
					t.Errorf("%s: replay is non-deterministic:\nfirst:  %.200s\nsecond: %.200s", policy, a, b)
				}
			}
		}

		// Penalty monotonicity, asserted where it is provable. Round-robin
		// fixes the record-to-core rotation, and warmth depends only on
		// assignments and sizes — but a backpressure or drain stall feeds
		// timing back into the merge order, which can re-interleave
		// tenants and shift even a fixed rotation's tenant->core map. So
		// the pointwise guarantee (each charge, and with it every clock,
		// non-decreasing in the penalty) holds exactly when no run
		// stalled; stalling inputs are covered by the invariants above.
		// Churned replays also decay warmth across idle core gaps, which
		// couples charges to wall-clock timing and with it to the penalty,
		// so the guarantee is only claimed for fixed-set replays.
		penalties := []uint64{0, penalty, 4 * penalty}
		rrRes := make([]*PoolResult, len(penalties))
		clean := true
		for pi, migration := range penalties {
			pool := PoolConfig{Cores: cores, Policy: PolicyRoundRobin, MigrationPenalty: migration}
			res, err := replayMode(context.Background(), profiles, pool, short)
			if err != nil {
				t.Fatalf("round-robin: replay failed: %v", err)
			}
			rrRes[pi] = res
			if res.Churned {
				clean = false
			}
			for _, tr := range res.Tenants {
				if tr.StallCycles != 0 || tr.DrainCycles != 0 {
					clean = false
				}
			}
		}
		if clean {
			for pi := 1; pi < len(penalties); pi++ {
				prev, res := rrRes[pi-1], rrRes[pi]
				for i := range res.Tenants {
					if res.Tenants[i].WallCycles < prev.Tenants[i].WallCycles {
						t.Errorf("round-robin/%d: wall %d at penalty %d beats %d at penalty %d (monotonicity)",
							i, res.Tenants[i].WallCycles, penalties[pi], prev.Tenants[i].WallCycles, penalties[pi-1])
					}
					if res.Tenants[i].ColdServeCycles < prev.Tenants[i].ColdServeCycles {
						t.Errorf("round-robin/%d: cold cycles %d at penalty %d under %d at penalty %d (monotonicity)",
							i, res.Tenants[i].ColdServeCycles, penalties[pi], prev.Tenants[i].ColdServeCycles, penalties[pi-1])
					}
				}
			}
		}
	})
}
