package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// ProfileLBA derives the unmonitored baseline from its own run (core 0's
// solo L2) instead of simulating the program a second time. The derived
// Result must be RunUnmonitored's, field for field, for every suite
// program under every lifeguard, at a small and a large scale, and under
// the design-point variants that change what the LBA run does around
// core 0: address filtering, no compression and a tiny log channel.
// writebackProgram joins the suite: its outcome turns on the L2 seeing
// core 0's dirty-victim writebacks, which no suite program's does.
func TestProfileBaselineMatchesUnmonitored(t *testing.T) {
	filter := DefaultConfig()
	filter.FilterRanges = []AddrRange{{Lo: isa.HeapBase, Hi: isa.HeapLimit}}
	raw := DefaultConfig()
	raw.CompressionOff = true
	tiny := DefaultConfig()
	tiny.Channel.CapacityBytes = 1 << 10
	type variant struct {
		name  string
		scale int
		cfg   Config
	}
	variants := []variant{
		{"default", 5_000, DefaultConfig()},
		{"default", 200_000, DefaultConfig()},
		{"filter", 5_000, filter},
		{"compression-off", 5_000, raw},
		{"channel-1KiB", 5_000, tiny},
	}
	programs := append(workloads.All(), workloads.Spec{Name: "writeback-lru",
		Build: func(workloads.Config) *prog.Program { return writebackProgram() }})
	for _, spec := range programs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, v := range variants {
				p := spec.Build(workloads.Config{Scale: v.scale})
				want, err := RunUnmonitored(p, v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, lg := range LifeguardNames() {
					res, err := ProfileLBA(p, lg, v.cfg, nullObserver{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Baseline, want) {
						t.Errorf("%s/%d/%s: derived baseline\n%s\nRunUnmonitored\n%s",
							v.name, v.scale, lg, describe(res.Baseline), describe(want))
					}
				}
			}
		})
	}
}

// describe prints a Result's scalar fields for a failure message.
func describe(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s %s instrs=%d app=%d wall=%d records=%d memref=%v",
		r.Program, r.Mode, r.Instructions, r.AppCycles, r.WallCycles, r.Records, r.MemRefFraction)
}

// writebackProgram touches nine lines that share one L2 set and one L1D
// set (a 64 KiB stride), so the L2's LRU order decides its last load: it
// stores to line 0, loads lines 1 to 8, then loads line 0 again. Line 0
// leaves the two-way L1 dirty when line 2 arrives, and its writeback makes
// it the L2's most recent line; loading line 8 then evicts line 1, and
// the final load of line 0 hits the L2. An L2 that missed the writeback
// would have evicted line 0 and send that load to DRAM.
func writebackProgram() *prog.Program {
	const stride = 64 << 10
	base := int64(isa.DataBase + 0x20_0000 + 5*64)
	b := prog.NewBuilder("writeback-lru").
		Li(isa.R1, base).
		Li(isa.R2, 7).
		Store(isa.R1, 0, isa.R2, 8)
	for i := int64(1); i <= 8; i++ {
		b.Load(isa.R3, isa.R1, i*stride, 8)
	}
	return b.Load(isa.R3, isa.R1, 0, 8).
		Li(isa.R0, 0).
		Syscall(osmodel.SysExit).
		MustBuild()
}
