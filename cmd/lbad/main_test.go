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
