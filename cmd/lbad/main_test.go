package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tenant"
)

// TestStatusShowsLastError: a daemon whose pool snapshot cannot be
// written says so in `lbad status`, not only in its Go API.
func TestStatusShowsLastError(t *testing.T) {
	dir := t.TempDir()
	srv, err := serve.New(serve.Config{
		Pool:    tenant.PoolConfig{Cores: 2, Policy: tenant.PolicyLeastLag},
		SLO:     10,
		Scale:   20_000,
		Workers: 2,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	// A non-empty directory where the snapshot goes makes its rename fail.
	if err := os.MkdirAll(filepath.Join(dir, "pool.json", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"admit", "-addr", web.URL}, &out); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"status", "-addr", web.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "last error     serve: writing the pool snapshot") {
		t.Errorf("status does not show the failed snapshot:\n%s", out.String())
	}
}

// TestDaemonPoolFlagValidation: an incoherent pool shape fails before
// the daemon binds its address or touches its data directory. A zero
// -pool is rejected, not defaulted to the serving pool.
func TestDaemonPoolFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-pool", "0"}, "a zero-core pool cannot serve"},
		{[]string{"-pool", "2", "-shards", "3"}, "more shards than cores cannot partition"},
		{[]string{"-shards", "-1"}, "negative shard counts are rejected"},
		{[]string{"-sched", "fifo"}, "unknown schedulers are rejected"},
		{[]string{"-window", "512"}, "the decode window is fixed; there is no -window flag"},
	} {
		data := filepath.Join(t.TempDir(), "data")
		args := append([]string{"-addr", "127.0.0.1:0", "-data", data}, c.args...)
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v should fail (%s)", c.args, c.why)
		}
		if _, err := os.Stat(data); !os.IsNotExist(err) {
			t.Errorf("args %v: the data directory was created before the pool was validated", c.args)
		}
	}
}
