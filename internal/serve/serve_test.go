package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/tenant"
)

// testConfig is a fast daemon shape: small workloads, a generous SLO so
// admissions succeed, and a tight cap so capacity rejections are cheap
// to reach.
func testConfig() Config {
	return Config{
		Pool:       tenant.PoolConfig{Cores: 2, Policy: tenant.PolicyLeastLag},
		SLO:        10,
		Scale:      20_000,
		Threads:    2,
		MaxTenants: 4,
		Workers:    2,
	}
}

func startServer(t *testing.T, cfg Config, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg, dir)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	if err := srv.LastError(); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
}

// TestLifecycle drives the full admit -> status -> evict arc over HTTP
// and checks the live metrics at each step.
func TestLifecycle(t *testing.T) {
	srv, ts := startServer(t, testConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())

	// Admit two suite tenants; each response carries the live decision.
	var admitted []AdmitResponse
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/tenants", "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d, want 201", i, resp.StatusCode)
		}
		ar := decode[AdmitResponse](t, resp)
		if ar.Tenant.ID != i+1 {
			t.Errorf("admit %d: id %d, want %d", i, ar.Tenant.ID, i+1)
		}
		if x := ar.Admission.ContentionX; x < 1 || x > ar.Admission.SLO {
			t.Errorf("admit %d: admitted at contention %.2fX, SLO %.2fX", i, x, ar.Admission.SLO)
		}
		if ar.Admission.Population != i {
			t.Errorf("admit %d: band population %d, want %d", i, ar.Admission.Population, i)
		}
		admitted = append(admitted, ar)
	}
	// The two suite draws must be the suite's first two benchmarks in
	// order — the populations the admission check replays and the live
	// set are the same sequence.
	if admitted[0].Tenant.Name == admitted[1].Tenant.Name {
		t.Errorf("both draws admitted %q; round-robin should advance", admitted[0].Tenant.Name)
	}

	waitIdle(t, srv)

	// Status: both tenants live, with replay-backed metrics.
	var tl struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	tl = decode[struct {
		Tenants []TenantStatus `json:"tenants"`
	}](t, resp)
	if len(tl.Tenants) != 2 {
		t.Fatalf("live tenants = %d, want 2", len(tl.Tenants))
	}
	for _, ten := range tl.Tenants {
		if ten.State != "admitted" {
			t.Errorf("tenant %d state %q, want admitted", ten.ID, ten.State)
		}
		if ten.Slowdown == nil || ten.Contention == nil {
			t.Errorf("tenant %d has no replay metrics after WaitIdle", ten.ID)
		} else if *ten.Contention < 1 {
			t.Errorf("tenant %d contention %.2f < 1", ten.ID, *ten.Contention)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/pool")
	if err != nil {
		t.Fatal(err)
	}
	pool := decode[PoolStatus](t, resp)
	if pool.LiveTenants != 2 || !pool.Fresh || pool.Replays == 0 {
		t.Errorf("pool status = %+v; want 2 live, fresh, >= 1 replay", pool)
	}
	if pool.Utilisation <= 0 || pool.MakespanCycles == 0 {
		t.Errorf("pool aggregates empty after replay: %+v", pool)
	}

	// Evict tenant 1: drain-then-release, gone after the next replay.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tenants/1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("evict: status %d, want 202", dresp.StatusCode)
	}
	dresp.Body.Close()
	waitIdle(t, srv)

	resp, err = http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	tl = decode[struct {
		Tenants []TenantStatus `json:"tenants"`
	}](t, resp)
	if len(tl.Tenants) != 1 || tl.Tenants[0].ID != 2 {
		t.Fatalf("after evict: %+v, want only tenant 2", tl.Tenants)
	}

	// Metrics echo the lifecycle.
	metrics := getMetrics(t, ts.URL)
	// Two admissions asked two first-time questions (one tenant, then
	// two), each a memo miss that ran one replay.
	for _, want := range []string{"lbad_admitted_total 2", "lbad_evicted_total 1", "lbad_live_tenants 1", "lbad_audit_records 3",
		"lbad_admission_memo_hits_total 0", "lbad_admission_memo_misses_total 2"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestAdmissionRejection pins the 409 path: a 1-core pool with a
// zero-tolerance SLO admits its first tenant (a lone tenant on one core
// pays no contention) and rejects the second with the measured decision
// in the body.
func TestAdmissionRejection(t *testing.T) {
	srv, ts := startServer(t, rejectingConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())

	if resp := postJSON(t, ts.URL+"/v1/tenants", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first admit: status %d, want 201", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/tenants", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second admit: status %d, want 409", resp.StatusCode)
	}
	er := decode[ErrorResponse](t, resp)
	if !strings.Contains(er.Error, "admission denied") {
		t.Errorf("409 error %q does not say admission denied", er.Error)
	}
	if er.Admission == nil {
		t.Fatal("409 body carries no admission band")
	}
	if er.Admission.Population != 1 || er.Admission.ContentionX <= 1.0 {
		t.Errorf("band = %+v, want population 1 and contention above 1.0X", er.Admission)
	}
	if er.Admission.SLO != 1.0 {
		t.Errorf("band SLO = %g, want 1.0", er.Admission.SLO)
	}

	// The rejection is durable evidence.
	found := false
	for _, e := range srv.store.Entries() {
		if e.Op == "reject" && e.Population == 1 && e.ContentionX == er.Admission.ContentionX {
			found = true
		}
	}
	if !found {
		t.Error("no reject entry in the audit log")
	}
}

// TestBadRequests pins the 400/404 surfaces.
func TestBadRequests(t *testing.T) {
	srv, ts := startServer(t, testConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())

	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/tenants", "{not json", http.StatusBadRequest},
		{http.MethodPost, "/v1/tenants", `{"benchmark":"no-such-benchmark"}`, http.StatusBadRequest},
		{http.MethodDelete, "/v1/tenants/99", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/xyz", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/nothing", "", http.StatusNotFound},
	}
	for _, c := range cases {
		var rd *strings.Reader
		if c.body != "" {
			rd = strings.NewReader(c.body)
		} else {
			rd = strings.NewReader("")
		}
		req, err := http.NewRequest(c.method, ts.URL+c.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestCrashRecovery is the durability arc: admit N tenants, kill the
// daemon without any shutdown path (the audit log is synced per append,
// so this is kill -9 as far as the store is concerned), restart on the
// same directory, and assert the recovered daemon serves the same
// tenant set, continues the id and draw sequences, and kept the audit
// log intact.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	srv1, ts1 := startServer(t, cfg, dir)

	var names []string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts1.URL+"/v1/tenants", "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
		names = append(names, decode[AdmitResponse](t, resp).Tenant.Name)
	}
	// Evict tenant 2 so recovery must fold an eviction too.
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/tenants/2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitIdle(t, srv1)

	// Hard kill: no WaitIdle, no store flush, no Shutdown.
	ts1.Close()
	srv1.rootCancel()
	<-srv1.done

	srv2, ts2 := startServer(t, cfg, dir)
	defer srv2.Shutdown(context.Background())
	waitIdle(t, srv2)

	var tl struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	gresp, err := http.Get(ts2.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	tl = decode[struct {
		Tenants []TenantStatus `json:"tenants"`
	}](t, gresp)
	if len(tl.Tenants) != 2 {
		t.Fatalf("recovered %d tenants, want 2 (admitted 3, evicted 1): %+v", len(tl.Tenants), tl.Tenants)
	}
	wantLive := map[int]string{1: names[0], 3: names[2]}
	for _, ten := range tl.Tenants {
		if wantLive[ten.ID] != ten.Name {
			t.Errorf("recovered tenant %d = %q, want %q", ten.ID, ten.Name, wantLive[ten.ID])
		}
		if ten.Slowdown == nil {
			t.Errorf("recovered tenant %d has no replay metrics after WaitIdle", ten.ID)
		}
	}

	// The sequences continue: the next admit takes id 4 and suite draw 4,
	// exactly what the pre-crash daemon would have drawn.
	wantNext := tenant.SuiteTenant(3, srv2.cfg.workload(srv2.cfg.Seed), core.DefaultConfig())
	aresp := postJSON(t, ts2.URL+"/v1/tenants", "")
	if aresp.StatusCode != http.StatusCreated {
		t.Fatalf("post-restart admit: status %d", aresp.StatusCode)
	}
	ar := decode[AdmitResponse](t, aresp)
	if ar.Tenant.ID != 4 {
		t.Errorf("post-restart id = %d, want 4", ar.Tenant.ID)
	}
	if ar.Tenant.Name != wantNext.Name {
		t.Errorf("post-restart draw = %q, want %q (the round-robin must resume, not restart)", ar.Tenant.Name, wantNext.Name)
	}

	// The audit log carries the whole history: 4 admits + 1 evict.
	var admits, evicts int
	for _, e := range srv2.store.Entries() {
		switch e.Op {
		case "admit":
			admits++
		case "evict":
			evicts++
		}
	}
	if admits != 4 || evicts != 1 {
		t.Errorf("audit log has %d admits, %d evicts; want 4 and 1", admits, evicts)
	}
}

// TestStoreTornTail pins the kill -9 mid-write case: a final line
// without its newline is discarded on Open and the log keeps appending
// cleanly after it.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(AuditEntry{Op: "admit", TenantID: i + 1, Benchmark: "gzip"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, auditFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"op":"adm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening with torn tail: %v", err)
	}
	if got := s2.Len(); got != 3 {
		t.Fatalf("recovered %d entries, want 3 (torn tail dropped)", got)
	}
	e, err := s2.Append(AuditEntry{Op: "evict", TenantID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 4 {
		t.Errorf("post-recovery seq = %d, want 4", e.Seq)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third open: the log parses end to end, 4 entries.
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if got := s3.Len(); got != 4 {
		t.Errorf("third open recovered %d entries, want 4", got)
	}
	s3.Close()
}

// TestStoreCorruptLine: a malformed line that is not the torn tail is
// corruption, and Open must refuse rather than silently drop state.
func TestStoreCorruptLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, auditFile)
	if err := os.WriteFile(path, []byte("{garbage}\n{\"seq\":2,\"op\":\"admit\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt mid-log line")
	}
}

// TestServerConfigValidation pins the startup rejections.
func TestServerConfigValidation(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		why    string
	}{
		{func(c *Config) { c.SLO = 0.5 }, "an SLO below 1 can never be met"},
		{func(c *Config) { c.Pool.Cores = -1 }, "a negative pool cannot serve"},
		{func(c *Config) { c.Pool.Policy = "no-such-policy" }, "unknown schedulers are rejected"},
		{func(c *Config) { c.MaxTenants = -2 }, "a negative cap is meaningless"},
		{func(c *Config) { c.Pool.Cores, c.Pool.Shards = 2, 3 }, "more shards than cores cannot partition the pool"},
		{func(c *Config) { c.Pool.Shards = -1 }, "a negative shard count is meaningless"},
	}
	for _, c := range cases {
		cfg := testConfig()
		c.mutate(&cfg)
		srv, err := New(cfg, t.TempDir())
		if err == nil {
			srv.Shutdown(context.Background())
			t.Errorf("config accepted; want rejection (%s)", c.why)
		}
	}
}

// TestReplayCancelledOnMembershipChange: a second admission mid-replay
// cancels the in-flight replay (counted in metrics) and the daemon
// converges on the two-tenant population.
func TestReplayCancelledOnMembershipChange(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 60_000
	srv, ts := startServer(t, cfg, t.TempDir())
	defer srv.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/tenants", "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitIdle(t, srv)
	srv.mu.Lock()
	live, gen := len(srv.live), srv.resultGen
	srv.mu.Unlock()
	if live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	if gen == 0 {
		t.Fatal("no replay generation recorded")
	}
	// Whether the first replay finished before the second admission is
	// timing-dependent; what must hold is convergence (WaitIdle) and the
	// final result covering both tenants.
	srv.mu.Lock()
	rows := len(srv.lastResult.Tenants)
	srv.mu.Unlock()
	if rows != 2 {
		t.Fatalf("final result covers %d tenants, want 2", rows)
	}
}

// rejectingConfig is a 1-core pool with a zero-tolerance SLO: it admits
// one tenant (a lone tenant pays no contention) and rejects the second.
func rejectingConfig() Config {
	cfg := testConfig()
	cfg.Pool.Cores = 1
	cfg.SLO = 1.0
	return cfg
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	return body.String()
}

// TestRepeatedRejectionReplaysNothing: asking the same question of an
// unchanged population is answered from the server's admission memo —
// the second identical 409 runs no replay and carries the same band.
func TestRepeatedRejectionReplaysNothing(t *testing.T) {
	srv, ts := startServer(t, rejectingConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())

	if resp := postJSON(t, ts.URL+"/v1/tenants", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first admit: status %d, want 201", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	var bands []AdmissionBand
	var misses []uint64
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/tenants", "")
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("reject %d: status %d, want 409", i, resp.StatusCode)
		}
		er := decode[ErrorResponse](t, resp)
		if er.Admission == nil {
			t.Fatalf("reject %d carries no band", i)
		}
		bands = append(bands, *er.Admission)
		misses = append(misses, srv.admission.Misses())
	}
	if misses[1] != misses[0] {
		t.Errorf("second identical rejection replayed %d populations, want 0", misses[1]-misses[0])
	}
	if bands[0] != bands[1] {
		t.Errorf("repeated rejection bands differ: %+v vs %+v", bands[0], bands[1])
	}
	if srv.admission.Hits() == 0 {
		t.Error("no admission memo hits after a repeated question")
	}
}

// TestRejectionAuditFailure: a rejection whose audit append fails is not
// acknowledged as a 409 — it is a 500, and it is not counted.
func TestRejectionAuditFailure(t *testing.T) {
	srv, ts := startServer(t, rejectingConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())

	if resp := postJSON(t, ts.URL+"/v1/tenants", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first admit: status %d, want 201", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/tenants", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reject with a closed store: status %d, want 500", resp.StatusCode)
	}
	if er := decode[ErrorResponse](t, resp); !strings.Contains(er.Error, "persisting rejection") {
		t.Errorf("500 error %q does not say persisting rejection", er.Error)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "lbad_rejected_total 0") {
		t.Errorf("an unpersisted rejection was counted:\n%s", m)
	}
}

// TestReadsDoNotWaitOnAdmission: the admission query runs off the server
// lock, so reads sent while a first-time query is in flight return
// before it does. The hook holds the query until the reads are back.
func TestReadsDoNotWaitOnAdmission(t *testing.T) {
	srv, ts := startServer(t, testConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())
	waitIdle(t, srv)

	entered, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release() // a failing read must not leave the handler parked
	srv.queryHook = func() {
		close(entered)
		<-hold
	}
	admitted := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", nil)
		if err != nil {
			admitted <- 0
			return
		}
		resp.Body.Close()
		admitted <- resp.StatusCode
	}()
	<-entered

	client := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{"/v1/pool", "/v1/tenants", "/v1/metrics"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s during an admission query: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
	select {
	case code := <-admitted:
		t.Fatalf("admission returned %d before its query was released", code)
	default:
	}
	release()
	if code := <-admitted; code != http.StatusCreated {
		t.Fatalf("admit: status %d, want 201", code)
	}
	if misses := srv.admission.Misses(); misses != 1 {
		t.Errorf("admission memo misses = %d, want 1 (the query was a first-time question)", misses)
	}
}

// barrierHook holds the first k admission queries until all k have
// arrived, so all of them are asked of the same population and all but
// one must be asked again after the first commits.
func barrierHook(k int) func() {
	var calls atomic.Int32
	var arrived sync.WaitGroup
	arrived.Add(k)
	return func() {
		if calls.Add(1) <= int32(k) {
			arrived.Done()
			arrived.Wait()
		}
	}
}

// TestConcurrentAdmissionsRespectCap: parallel POSTs racing through the
// off-lock query never admit past the SLO or the tenant cap, and every
// audited decision names the population it committed against.
func TestConcurrentAdmissionsRespectCap(t *testing.T) {
	const k = 6
	cases := []struct {
		name    string
		cfg     Config
		admits  int
		rejects int // audited SLO rejections; the rest are cap 409s
	}{
		{"SLO bound", rejectingConfig(), 1, k - 1},
		{"tenant cap", testConfig(), testConfig().MaxTenants, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, ts := startServer(t, c.cfg, t.TempDir())
			defer srv.Shutdown(context.Background())
			srv.queryHook = barrierHook(k)

			codes := make(chan int, k)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", nil)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					codes <- resp.StatusCode
				}()
			}
			wg.Wait()
			close(codes)
			var created, conflicts int
			for code := range codes {
				switch code {
				case http.StatusCreated:
					created++
				case http.StatusConflict:
					conflicts++
				default:
					t.Errorf("unexpected status %d", code)
				}
			}
			if created != c.admits || conflicts != k-c.admits {
				t.Fatalf("%d admitted, %d refused; want %d and %d", created, conflicts, c.admits, k-c.admits)
			}

			live, rejects := 0, 0
			for _, e := range srv.store.Entries() {
				if e.Population != live {
					t.Errorf("seq %d (%s) audited population %d, live count at commit was %d", e.Seq, e.Op, e.Population, live)
				}
				switch e.Op {
				case "admit":
					if e.ContentionX > c.cfg.SLO {
						t.Errorf("seq %d admitted tenant %d at contention %.2fX, past the %.2fX SLO", e.Seq, live+1, e.ContentionX, c.cfg.SLO)
					}
					live++
				case "reject":
					if e.ContentionX <= c.cfg.SLO {
						t.Errorf("seq %d rejected tenant %d at contention %.2fX, within the %.2fX SLO", e.Seq, live+1, e.ContentionX, c.cfg.SLO)
					}
					rejects++
				}
			}
			if live != c.admits || live > c.cfg.MaxTenants || rejects != c.rejects {
				t.Errorf("audit log: %d admits, %d rejects; want %d and %d", live, rejects, c.admits, c.rejects)
			}
		})
	}
}

// TestAdmissionDecisionMatchesPlanner: the server's one-replay admission
// check gives the planner's decision. The planner's first probe replays
// the same n+1 suite draws; its bisection and band only add reporting,
// so it stays the reference here.
func TestAdmissionDecisionMatchesPlanner(t *testing.T) {
	ctx := context.Background()
	slos := []float64{1.0, 1.3, 2.5, 10}
	// One engine serves both sides, so each suite tenant is profiled
	// once. The servers need no store or replay loop to ask, and the
	// answer they memoize does not depend on the SLO, so the servers of
	// one pool share a memo.
	eng := tenant.NewEngine(2, nil)
	for _, cores := range []int{1, 2} {
		memo := runner.NewMemo[float64]()
		for n := 0; n <= 5; n++ {
			pool := tenant.PoolConfig{Cores: cores, Policy: tenant.PolicyLeastLag}
			cfg := testConfig().withDefaults()
			points, err := eng.PlanAdmissionQuery(ctx, cfg.workload(cfg.Seed), core.DefaultConfig(),
				tenant.AdmissionQuery{Pool: pool, SLOs: slos, MaxTenants: n + 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, slo := range slos {
				cfg.Pool, cfg.SLO = pool, slo
				srv := &Server{cfg: cfg, eng: eng, admission: memo}
				band, err := srv.ask(ctx, n)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := band.admits(), points[i].MaxTenants >= n+1; got != want {
					t.Errorf("%d cores, SLO %.1fX, population %d: server admits=%v at %.3fX, planner admits=%v (max %d)",
						cores, slo, n, got, band.ContentionX, want, points[i].MaxTenants)
				}
			}
		}
	}
}

// TestRecoverReadsBandEntries: an audit log written before the decision
// fields shrank to slo/population/contention_x, with the planner's band
// on every admit and reject, recovers to the same live set, draw cursor
// and next id as the same decisions in the current schema.
func TestRecoverReadsBandEntries(t *testing.T) {
	const band = `"slo":10,"population":%d,"max_tenants":%d,"tenants_lo":%[2]d,"tenants_hi":%[2]d,"contention_at_max":1.25,"fallback_scan":true`
	lines := []string{
		`{"seq":1,"op":"admit","tenant_id":1,"name":"bc","benchmark":"bc","seed":745197,"draw":1,` + fmt.Sprintf(band, 0, 1) + `}`,
		`{"seq":2,"op":"admit","tenant_id":2,"name":"gnuplot","benchmark":"gnuplot","seed":745197,"draw":2,` + fmt.Sprintf(band, 1, 2) + `}`,
		`{"seq":3,"op":"reject",` + fmt.Sprintf(band, 2, 2) + `}`,
		`{"seq":4,"op":"evict","tenant_id":1,"name":"bc","benchmark":"bc","seed":745197}`,
		`{"seq":5,"op":"admit","tenant_id":3,"name":"mine","benchmark":"mcf","seed":745197,` + fmt.Sprintf(band, 1, 3) + `}`,
	}
	type state struct {
		live         []TenantStatus
		draws, next  int
		recoveredLog int
	}
	recoverFrom := func(log string) state {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, auditFile), []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, ts := startServer(t, testConfig(), dir)
		defer srv.Shutdown(context.Background())
		resp, err := http.Get(ts.URL + "/v1/tenants")
		if err != nil {
			t.Fatal(err)
		}
		tl := decode[struct {
			Tenants []TenantStatus `json:"tenants"`
		}](t, resp)
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for i := range tl.Tenants {
			tl.Tenants[i].State = "" // status fields are not recovery
			tl.Tenants[i].Slowdown, tl.Tenants[i].Contention, tl.Tenants[i].MeanLag, tl.Tenants[i].LagP95 = nil, nil, nil, nil
		}
		return state{tl.Tenants, srv.draws, srv.nextID, srv.store.Len()}
	}

	old := recoverFrom(strings.Join(lines, "\n") + "\n")
	var current bytes.Buffer
	for _, line := range lines {
		var e AuditEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(blob, []byte("max_tenants")) {
			t.Fatalf("re-encoded entry still carries the band: %s", blob)
		}
		current.Write(append(blob, '\n'))
	}
	cur := recoverFrom(current.String())

	if !reflect.DeepEqual(old, cur) {
		t.Errorf("old-schema log recovered %+v, current schema %+v", old, cur)
	}
	if len(old.live) != 2 || old.live[0].ID != 2 || old.live[0].Name != "gnuplot" || old.live[1].ID != 3 || old.live[1].Name != "mine" {
		t.Errorf("recovered live set %+v, want tenants 2 (gnuplot) and 3 (mine)", old.live)
	}
	if old.draws != 2 || old.next != 4 || old.recoveredLog != len(lines) {
		t.Errorf("recovered draw cursor %d, next id %d, %d entries; want 2, 4, %d", old.draws, old.next, old.recoveredLog, len(lines))
	}
}

// TestSnapshotWriteFailureReported: a replay whose pool snapshot cannot
// be written still installs its result, and reports the failure through
// LastError, the pool status's last_error and the replay-failure
// counter. A non-empty directory where the snapshot goes makes its
// rename fail even for a root process, while the audit log stays
// writable.
func TestSnapshotWriteFailureReported(t *testing.T) {
	dir := t.TempDir()
	srv, ts := startServer(t, testConfig(), dir)
	defer srv.Shutdown(context.Background())
	waitIdle(t, srv)

	if err := os.MkdirAll(filepath.Join(dir, "pool.json", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/tenants", "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: status %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.LastError(); err == nil || !strings.Contains(err.Error(), "pool snapshot") {
		t.Errorf("LastError = %v, want the failed pool snapshot write", err)
	}
	gresp, err := http.Get(ts.URL + "/v1/pool")
	if err != nil {
		t.Fatal(err)
	}
	pool := decode[PoolStatus](t, gresp)
	if !pool.Fresh || pool.LiveTenants != 1 || pool.MakespanCycles == 0 {
		t.Errorf("pool status %+v; the replay's result should be installed", pool)
	}
	if !strings.Contains(pool.LastError, "pool snapshot") {
		t.Errorf("pool status last_error = %q, want the failed pool snapshot write", pool.LastError)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "lbad_replay_failures_total 1\n") {
		t.Errorf("metrics do not count the failed snapshot:\n%s", m)
	}
}

// TestAdmitFailsClosedWithoutDataDir: once the data directory is removed
// under a live daemon, an admission cannot be made durable, so it is a
// 500, not a 201 whose audit entry lands in an unlinked file, and the
// tenant neither joins the live set nor is counted.
func TestAdmitFailsClosedWithoutDataDir(t *testing.T) {
	dir := t.TempDir()
	srv, ts := startServer(t, testConfig(), dir)
	defer srv.Shutdown(context.Background())
	waitIdle(t, srv)

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/tenants", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("admit without a data directory: status %d, want 500", resp.StatusCode)
	}
	if er := decode[ErrorResponse](t, resp); !strings.Contains(er.Error, "persisting admission") {
		t.Errorf("500 error %q does not say persisting admission", er.Error)
	}
	gresp, err := http.Get(ts.URL + "/v1/pool")
	if err != nil {
		t.Fatal(err)
	}
	if pool := decode[PoolStatus](t, gresp); pool.LiveTenants != 0 {
		t.Errorf("%d live tenants after a failed admission, want 0", pool.LiveTenants)
	}
	m := getMetrics(t, ts.URL)
	if !strings.Contains(m, "lbad_admitted_total 0\n") || !strings.Contains(m, "lbad_audit_records 0\n") {
		t.Errorf("an unpersisted admission was counted:\n%s", m)
	}
}
