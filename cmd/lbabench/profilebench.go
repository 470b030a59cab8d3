// Profile-benchmark mode: `lbabench -bench profile` times
// tenant.Engine.Profile — the simulated core and caches, capture, VPC
// compression, dispatch with the lifeguard handler, and the timeline
// recorder — and emits the trajectory as BENCH_profile.json (schema
// lba-bench-profile/v1). See docs/performance.md for the schema.
package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// The profile benchmark profiles every suite program at a pinned scale,
// once per lifeguard. A cell is one lifeguard: one pass profiles the
// whole suite on a fresh single-worker engine, so nothing is memoized,
// and it runs at GOMAXPROCS(1), so the pass is the one goroutine's work.
// The cells run in benchReps rounds interleaved across lifeguards, as the
// replay benchmark's do.
const (
	benchProfileSchema = "lba-bench-profile/v1"
	benchProfileScale  = 100_000
)

// benchProfileRow is one lifeguard's cell. NsPerInstr is the median
// pass over the instructions a pass retires; SpreadPct is the
// interquartile range of the passes over their median, in percent.
type benchProfileRow struct {
	Lifeguard      string  `json:"lifeguard"`
	Instructions   uint64  `json:"instructions"`
	NsPerInstr     float64 `json:"ns_per_instr"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
	SpreadPct      float64 `json:"spread_pct"`
}

type benchProfileSuite struct {
	Programs int `json:"programs"`
	Scale    int `json:"scale"`
	Workers  int `json:"workers"`
	Reps     int `json:"reps"`
}

// benchProfileHeadline is the trajectory number: instructions profiled
// across every cell over the sum of the cells' median passes.
type benchProfileHeadline struct {
	InstrPerSec float64 `json:"instr_per_sec"`
}

type benchProfileReport struct {
	Schema     string               `json:"schema"`
	Suite      benchProfileSuite    `json:"suite"`
	Lifeguards []benchProfileRow    `json:"lifeguards"`
	Headline   benchProfileHeadline `json:"headline"`
}

// profileCell is one lifeguard's suite and what benchProfile measured
// of it.
type profileCell struct {
	tenants         []tenant.Tenant
	instrs          uint64          // instructions one pass retires
	times           []time.Duration // every timed pass, in round order
	mallocs, bytesN uint64          // heap allocations over the timed passes
}

// pass profiles the cell's suite on a fresh single-worker engine and
// returns the instructions it retired.
func (c *profileCell) pass() (uint64, error) {
	eng := tenant.NewEngine(1, nil)
	var instrs uint64
	for _, t := range c.tenants {
		p, err := eng.Profile(context.Background(), t)
		if err != nil {
			return 0, err
		}
		instrs += p.Result.Instructions
	}
	return instrs, nil
}

// benchProfile runs the profile benchmark and prints its table; the
// report lands at jsonPath and is schema-diffed against diffSchemaPath
// as for the replay benchmark.
func (s *session) benchProfile(jsonPath, diffSchemaPath string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	specs := workloads.All()
	var cells []*profileCell
	for _, lg := range core.LifeguardNames() {
		c := &profileCell{}
		for _, spec := range specs {
			c.tenants = append(c.tenants, tenant.Tenant{
				Name: spec.Name + "/" + lg, Benchmark: spec.Name, Lifeguard: lg,
				Workload: workloads.Config{Scale: benchProfileScale},
				Config:   core.DefaultConfig(),
			})
		}
		cells = append(cells, c)
	}
	// An untimed pass per cell warms the pooled predictor banks and
	// channels and supplies the instruction count.
	for _, c := range cells {
		n, err := c.pass()
		if err != nil {
			return err
		}
		c.instrs = n
	}
	var before, after runtime.MemStats
	for rep := 0; rep < benchReps; rep++ {
		for _, c := range cells {
			runtime.ReadMemStats(&before)
			start := time.Now()
			if _, err := c.pass(); err != nil {
				return err
			}
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			c.times = append(c.times, d)
			c.mallocs += after.Mallocs - before.Mallocs
			c.bytesN += after.TotalAlloc - before.TotalAlloc
		}
	}

	rep := benchProfileReport{
		Schema: benchProfileSchema,
		Suite:  benchProfileSuite{Programs: len(specs), Scale: benchProfileScale, Workers: 1, Reps: benchReps},
	}
	var instrs uint64
	var total float64
	for i, c := range cells {
		median := quantile(c.times, 0.5)
		per := float64(c.instrs) * benchReps
		rep.Lifeguards = append(rep.Lifeguards, benchProfileRow{
			Lifeguard:      core.LifeguardNames()[i],
			Instructions:   c.instrs,
			NsPerInstr:     median / float64(c.instrs),
			AllocsPerInstr: float64(c.mallocs) / per,
			BytesPerInstr:  float64(c.bytesN) / per,
			SpreadPct:      spreadPct(c.times),
		})
		instrs += c.instrs
		total += median
	}
	rep.Headline.InstrPerSec = float64(instrs) / (total / 1e9)

	fmt.Fprintf(s.out, "Profile benchmark: %d programs at scale %d per lifeguard, fresh 1-worker engine, GOMAXPROCS(1), median of %d\n",
		len(specs), benchProfileScale, benchReps)
	tb := metrics.NewTable("lifeguard", "instrs", "ns/instr", "allocs/instr", "B/instr", "spread%")
	for _, row := range rep.Lifeguards {
		tb.AddRow(row.Lifeguard,
			fmt.Sprintf("%d", row.Instructions),
			fmt.Sprintf("%.1f", row.NsPerInstr),
			fmt.Sprintf("%.5f", row.AllocsPerInstr),
			fmt.Sprintf("%.1f", row.BytesPerInstr),
			fmt.Sprintf("%.1f", row.SpreadPct))
	}
	fmt.Fprint(s.out, tb.String())
	fmt.Fprintf(s.out, "headline: %.2f M instr/s\n\n", rep.Headline.InstrPerSec/1e6)
	return s.writeBenchReport(rep, jsonPath, diffSchemaPath)
}
