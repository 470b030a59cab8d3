// Command lbad is the LBA serving daemon: the batch simulator promoted
// to a long-running service. It admits tenants over HTTP with live
// admission-control decisions (one memoized replay of the first n+1
// suite tenants, n the live count, against the configured contention
// SLO), re-simulates the live population on every membership change, and
// persists every decision to an append-only JSONL audit log so a
// restarted daemon recovers its tenant set. See docs/daemon.md for the
// API and persistence format.
//
// Usage:
//
//	lbad -data /var/lib/lbad                  # serve on 127.0.0.1:8377
//	lbad -data d -pool 4 -sched wfq -slo 2.0  # pool shape and SLO
//	lbad -addr :9000 -data d -scale 500000    # bind and workload scale
//
//	lbad status                # pool + tenant table of a running daemon
//	lbad admit                 # admit the next suite tenant
//	lbad admit -benchmark gzip # admit a specific workload
//	lbad evict 3               # drain-then-release tenant 3
//
// The daemon shuts down gracefully on SIGTERM/SIGINT: it stops
// accepting requests, waits for the in-flight replay to cover the final
// population, then flushes and closes the audit log.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tenant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbad:", err)
		os.Exit(1)
	}
}

// run dispatches between the daemon (no subcommand) and the admin client
// subcommands, behind the same testable seam as lbasim/lbabench.
func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "status":
			return clientStatus(args[1:], out)
		case "admit":
			return clientAdmit(args[1:], out)
		case "evict":
			return clientEvict(args[1:], out)
		}
	}
	return runDaemon(args, out)
}

func runDaemon(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbad", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8377", "HTTP listen address")
		data      = fs.String("data", "", "data directory for the audit log and artifacts (required)")
		slo       = fs.Float64("slo", serve.DefaultSLO, "admission contention SLO (>= 1): pooling may cost any tenant at most this factor over a dedicated lifeguard core")
		pool      = fs.Int("pool", 2, "shared lifeguard cores")
		sched     = fs.String("sched", tenant.PolicyLeastLag, "pool scheduler: "+strings.Join(tenant.Policies(), " | "))
		scale     = fs.Int("scale", serve.DefaultScale, "approximate dynamic instructions per admitted workload")
		seed      = fs.Uint64("seed", serve.DefaultSeed, "base workload seed (suite draws offset it per round)")
		threads   = fs.Int("threads", serve.DefaultThreads, "worker threads for multithreaded benchmarks")
		maxT      = fs.Int("max-tenants", serve.DefaultMaxTenants, "hard population cap")
		workers   = fs.Int("workers", 0, "profiling worker pool width (0 = NumCPU)")
		shards    = fs.Int("shards", 0, "partition the pool into K sub-pools replayed in parallel (0/1 = unsharded)")
		migration = fs.Uint64("migration", 0, "migration penalty in cycles for serving a record on a cold core (0 = model off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand %q (have status, admit, evict)", fs.Arg(0))
	}
	if *data == "" {
		return fmt.Errorf("-data is required: the daemon's tenant set must survive a restart")
	}
	cfg := serve.Config{
		Pool: tenant.PoolConfig{Cores: *pool, Policy: *sched,
			MigrationPenalty: *migration, Shards: *shards},
		SLO:        *slo,
		Scale:      *scale,
		Seed:       *seed,
		Threads:    *threads,
		MaxTenants: *maxT,
		Workers:    *workers,
	}
	// Validate the flags' pool as given: serve.New would default a zero
	// -pool to its serving default instead of rejecting it.
	if err := cfg.Pool.Validate(); err != nil {
		return err
	}

	// Bind before announcing: a "listening" line means requests work.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv, err := serve.New(cfg, *data)
	if err != nil {
		ln.Close()
		return err
	}
	// A client that never finishes its headers must not hold a
	// connection (and its goroutine) open forever.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "lbad: listening on %s, data in %s (pool %d cores, %s, SLO %.2fX)\n",
		ln.Addr(), *data, *pool, *sched, *slo)

	select {
	case err := <-errCh:
		srv.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish, let
	// the replay loop cover the final population, flush the audit log.
	fmt.Fprintln(out, "lbad: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		srv.Shutdown(shutCtx)
		return err
	}
	return srv.Shutdown(shutCtx)
}

// client is the admin CLI's HTTP side.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &client{base: strings.TrimSuffix(addr, "/"), hc: &http.Client{Timeout: 5 * time.Minute}}
}

// do issues one request and decodes the JSON response into v (unless
// nil); a non-2xx status surfaces the server's error body.
func (c *client) do(method, path string, body io.Reader, v any) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e serve.ErrorResponse
		if json.Unmarshal(blob, &e) == nil && e.Error != "" {
			if e.Admission != nil {
				return fmt.Errorf("%s (measured %.2fX contention with %d tenants, SLO %.2fX)",
					e.Error, e.Admission.ContentionX, e.Admission.Population+1, e.Admission.SLO)
			}
			return errors.New(e.Error)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(blob, v)
}

func clientStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbad status", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "daemon address")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	c := newClient(*addr)
	var pool serve.PoolStatus
	if err := c.do(http.MethodGet, "/v1/pool", nil, &pool); err != nil {
		return err
	}
	var tenants struct {
		Tenants []serve.TenantStatus `json:"tenants"`
	}
	if err := c.do(http.MethodGet, "/v1/tenants", nil, &tenants); err != nil {
		return err
	}
	fmt.Fprintf(out, "pool           %d lifeguard cores, %s scheduling, SLO %.2fX\n", pool.Cores, pool.Policy, pool.SLO)
	fmt.Fprintf(out, "population     %d live (%d draining), cap %d\n", pool.LiveTenants, pool.Draining, pool.MaxTenants)
	fresh := "stale (replay in flight)"
	if pool.Fresh {
		fresh = "fresh"
	}
	fmt.Fprintf(out, "replays        %d, latest %s\n", pool.Replays, fresh)
	if pool.LastError != "" {
		fmt.Fprintf(out, "last error     %s\n", pool.LastError)
	}
	if pool.Replays > 0 {
		fmt.Fprintf(out, "slowdown       mean %.2fX, max %.2fX\n", pool.MeanSlowdown, pool.MaxSlowdown)
		fmt.Fprintf(out, "contention     mean %.2fX, max %.2fX\n", pool.MeanContentionX, pool.MaxContentionX)
		fmt.Fprintf(out, "pool util      %.0f%% over %d makespan cycles\n", 100*pool.Utilisation, pool.MakespanCycles)
	}
	if len(tenants.Tenants) > 0 {
		tb := metrics.NewTable("id", "tenant", "lifeguard", "state", "slowdown", "cont-x", "lag-mean", "lag-p95")
		for _, t := range tenants.Tenants {
			slow, cont, lagMean, lagP95 := "-", "-", "-", "-"
			if t.Slowdown != nil {
				slow = fmt.Sprintf("%.2fX", *t.Slowdown)
			}
			if t.Contention != nil {
				cont = fmt.Sprintf("%.2fX", *t.Contention)
			}
			if t.MeanLag != nil {
				lagMean = fmt.Sprintf("%.0f", *t.MeanLag)
			}
			if t.LagP95 != nil {
				lagP95 = fmt.Sprintf("%d", *t.LagP95)
			}
			tb.AddRow(strconv.Itoa(t.ID), t.Name, t.Lifeguard, t.State, slow, cont, lagMean, lagP95)
		}
		fmt.Fprint(out, tb.String())
	}
	return nil
}

func clientAdmit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbad admit", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "daemon address")
	benchmark := fs.String("benchmark", "", "admit this workload instead of the next suite draw")
	name := fs.String("name", "", "tenant name (with -benchmark)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var body io.Reader
	if *benchmark != "" || *name != "" {
		blob, err := json.Marshal(serve.AdmitRequest{Benchmark: *benchmark, Name: *name})
		if err != nil {
			return err
		}
		body = strings.NewReader(string(blob))
	}
	var resp serve.AdmitResponse
	if err := newClient(*addr).do(http.MethodPost, "/v1/tenants", body, &resp); err != nil {
		return err
	}
	fmt.Fprintf(out, "admitted tenant %d: %s (%s, seed %d)\n",
		resp.Tenant.ID, resp.Tenant.Name, resp.Tenant.Lifeguard, resp.Tenant.Seed)
	fmt.Fprintf(out, "admission      %d tenants measure %.2fX contention, within SLO %.2fX\n",
		resp.Admission.Population+1, resp.Admission.ContentionX, resp.Admission.SLO)
	return nil
}

func clientEvict(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbad evict", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "daemon address")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: lbad evict [-addr host:port] <tenant-id>")
	}
	id, err := strconv.Atoi(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("tenant id %q is not an integer", fs.Arg(0))
	}
	if err := newClient(*addr).do(http.MethodDelete, "/v1/tenants/"+strconv.Itoa(id), nil, nil); err != nil {
		return err
	}
	fmt.Fprintf(out, "tenant %d draining (released after the next replay)\n", id)
	return nil
}
