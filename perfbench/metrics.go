package main

import (
	"runtime"
	"slices"
)

// metricDef names one printed metric and its unit. BENCHMARK.json lists
// the same names and units; TestMetricTablesMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run prints. Every workload reports every
// metric; README.md gives each workload's reading of work_per_s and
// op_min_ms.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_min_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// lifeguards are the paper's three lifeguards as the per-layer metric
// names spell them.
var lifeguards = []string{"addrcheck", "taintcheck", "lockset"}

// lifeguardName maps a metric-name lifeguard to core.Factory's name.
var lifeguardName = map[string]string{
	"addrcheck":  "AddrCheck",
	"taintcheck": "TaintCheck",
	"lockset":    "LockSet",
}

// replayCells names the warm-replay cells in pass order: every policy on
// the fixed set, every policy under churn, and one sharded affinity cell.
func replayCells() []string {
	cells := slices.Clone(policies)
	for _, p := range policies {
		cells = append(cells, p+".churn")
	}
	return append(cells, "sharded")
}

// perLayer is what a traced run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"osmodel.ns_per_instr", "ns"},
		{"capture.ns_per_record", "ns"},
		{"vpc.ns_per_record", "ns"},
		{"vpc.bits_per_record", "bit"},
		{"vpc.allocs_per_record", "count"},
	}
	for _, l := range lifeguards {
		defs = append(defs,
			metricDef{"dispatch." + l + ".ns_per_record", "ns"},
			metricDef{"dispatch." + l + ".allocs_per_record", "count"})
	}
	defs = append(defs, metricDef{"logbuf.ns_per_record", "ns"})
	for _, l := range lifeguards {
		defs = append(defs,
			metricDef{"core." + l + ".ns_per_instr", "ns"},
			metricDef{"core." + l + ".allocs_per_instr", "count"},
			metricDef{"core." + l + ".bytes_per_instr", "B"},
			metricDef{"core." + l + ".self_ns_per_instr", "ns"})
	}
	defs = append(defs,
		metricDef{"tenant.profile_ns_per_instr", "ns"},
		metricDef{"tenant.profile_allocs_per_instr", "count"})
	for _, c := range replayCells() {
		defs = append(defs,
			metricDef{"tenant.replay." + c + ".ns_per_record", "ns"},
			metricDef{"tenant.replay." + c + ".allocs_per_replay", "count"})
	}
	return append(defs,
		metricDef{"tenant.replay.records_per_replay", "count"},
		metricDef{"tenant.admission_ms", "ms"},
		metricDef{"serve.store_append_ms", "ms"},
		metricDef{"serve.admit_ms", "ms"},
		metricDef{"serve.reject_ms", "ms"},
		metricDef{"serve.evict_ms", "ms"},
		metricDef{"serve.read_ms", "ms"},
		metricDef{"serve.admit_fresh_ms", "ms"},
		metricDef{"serve.evict_fresh_ms", "ms"},
		metricDef{"loadgen.read_p50_ms", "ms"},
		metricDef{"loadgen.read_p99_ms", "ms"},
		metricDef{"loadgen.read_lag_p99_ms", "ms"},
		metricDef{"trace.work_per_s", "1/s"},
		metricDef{"trace.op_min_ms", "ms"},
	)
}()

// unitOf returns a metric's unit from the tables.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is in no table")
}

// endToEndName is the name a run prints a throughput or latency figure
// under: a traced run prints it as trace.<name>, so the difference from
// the untraced run's figure is the tracing overhead.
func endToEndName(b *bench, name string) string {
	if b.tr != nil {
		return "trace." + name
	}
	return name
}

// allocs is a snapshot of the runtime's allocation counters.
type allocs struct{ mallocs, bytes uint64 }

// readAllocs samples the allocation counters (a stop-the-world read, so
// it brackets whole loops, never single records).
func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.Mallocs, ms.TotalAlloc}
}

// since returns the allocations made after a.
func (a allocs) since() allocs {
	now := readAllocs()
	return allocs{now.mallocs - a.mallocs, now.bytes - a.bytes}
}

func (a allocs) add(b allocs) allocs { return allocs{a.mallocs + b.mallocs, a.bytes + b.bytes} }

// liveHeapMB forces two collections and returns the heap still
// allocated, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
