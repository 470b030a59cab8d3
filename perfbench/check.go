package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/lifeguard"
	"repro/internal/tenant"
)

// refsJSON pins the digests of the workloads' functional outputs at the
// default seed and scale. Regenerate it with
//
//	bash perfbench/run.sh --write-refs perfbench/refs.json
//
// only when a change is meant to alter simulation results.
//
//go:embed refs.json
var refsJSON []byte

// refs holds pinned digests: one per cold-profile tenant (keyed by
// tenant name) and one per warm-replay cell (keyed by cell name).
type refs struct {
	Seed     uint64            `json:"seed"`
	Scale    int               `json:"scale"`
	Profiles map[string]string `json:"profiles"`
	Cells    map[string]string `json:"cells"`
}

func loadRefs() (refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return r, fmt.Errorf("pinned references: %w", err)
	}
	return r, nil
}

// check compares a digest against the pinned one. Pins apply only at
// the seed and scale they were taken at.
func (r refs) check(o options, pinned map[string]string, key, got string) error {
	if o.seed != r.Seed || o.scale != r.Scale {
		return nil
	}
	want, ok := pinned[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, pinned %s", key, got, want)
	}
	return nil
}

// outcome is the functional output of one monitored run: what the
// profile must agree on with core.RunLBA and across passes.
type outcome struct {
	Instructions uint64                `json:"instructions"`
	Records      uint64                `json:"records"`
	LogBits      uint64                `json:"log_bits"`
	Violations   []lifeguard.Violation `json:"violations"`
}

func outcomeOf(r *core.Result) outcome {
	return outcome{Instructions: r.Instructions, Records: r.Records, LogBits: r.LogBits, Violations: r.Violations}
}

// digest is a short stable hash of v's JSON encoding.
func digest(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is digested
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// pinRefs computes the reference digests at the default seed and scale
// and writes them to path.
func pinRefs(ctx context.Context, path string) error {
	o := options{seed: defaultSeed, scale: defaultScale}
	r := refs{Seed: o.seed, Scale: o.scale, Profiles: map[string]string{}, Cells: map[string]string{}}
	for _, t := range coldTenants(o) {
		p, err := tenant.NewEngine(1, nil).Profile(ctx, t)
		if err != nil {
			return err
		}
		r.Profiles[t.Name] = digest(outcomeOf(p.Result))
	}
	eng, _, err := warmEngine(ctx, o)
	if err != nil {
		return err
	}
	cells, err := warmCells(o)
	if err != nil {
		return err
	}
	for _, c := range cells {
		res, err := eng.RunPool(ctx, c.tenants, c.pool)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		r.Cells[c.name] = digest(res.Cell())
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
