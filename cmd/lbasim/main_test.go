package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestPoolFlagValidation mirrors lbabench's TestChurnFlagValidation for
// the single-run CLI: incoherent pool shapes and misapplied flags are
// rejected up front, before any simulation runs.
func TestPoolFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-tenants", "-1"}, "negative tenant counts are rejected"},
		{[]string{"-tenants", "2", "-pool", "0"}, "a zero-core pool cannot serve"},
		{[]string{"-tenants", "2", "-pool", "-3"}, "negative core counts are rejected"},
		{[]string{"-tenants", "4", "-pool", "2", "-shards", "-1"}, "negative shard counts are rejected"},
		{[]string{"-tenants", "4", "-pool", "2", "-shards", "3"}, "more shards than cores cannot partition"},
		{[]string{"-tenants", "2", "-seeds", "0"}, "replication needs at least one seed"},
		{[]string{"-tenants", "2", "-sched", "fifo"}, "unknown schedulers are rejected before profiling"},
		{[]string{"-tenants", "2", "-window", "512"}, "the decode window is fixed; there is no -window flag"},
		{[]string{"-tenants", "2", "-churn", "-0.5"}, "negative churn rates are negative times"},
		{[]string{"-tenants", "2", "-bench", "gzip"}, "single-run selectors conflict with a pool"},
		{[]string{"-tenants", "2", "-bug", "leak"}, "injected bugs are a single-run selector"},
		{[]string{"-pool", "4"}, "pool flags need -tenants"},
		{[]string{"-shards", "2"}, "shards need -tenants"},
		{[]string{"-sched", "wfq"}, "schedulers need -tenants"},
		{[]string{"-bench", "no-such-benchmark", "-baseline=false"}, "unknown benchmarks are rejected"},
		{[]string{"-bug", "segfault", "-baseline=false"}, "unknown bugs are rejected"},
		{[]string{"-mode", "emulated", "-baseline=false"}, "unknown modes are rejected"},
	} {
		if err := run(c.args, io.Discard); err == nil {
			t.Errorf("args %v should fail (%s)", c.args, c.why)
		}
	}
}

// TestRunSingleSmoke keeps the refactored run() seam honest: a small
// monitored run still prints the result block.
func TestRunSingleSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "gzip", "-scale", "8000"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"benchmark      gzip", "mode           lba + AddrCheck", "slowdown", "violations     none"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunTenantsSmoke covers the pool path through the same seam,
// including the sharded table shape.
func TestRunTenantsSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-tenants", "4", "-pool", "2", "-shards", "2", "-scale", "8000"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"tenants        4", "2 lifeguard cores", "shards         2", "mean slowdown"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}
