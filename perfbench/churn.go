package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// readRate is the open-loop reader's schedule, in reads per second.
const readRate = 200

// readPaths are the read endpoints the reader cycles through.
var readPaths = []string{"/v1/pool", "/v1/tenants", "/v1/metrics"}

// roundSeconds is how long one round of churn cycles takes on the
// 2-vCPU host the benchmark is sized for; --seconds buys that many
// rounds.
const roundSeconds = 2.5

// suiteSize is the number of programs in one round of suite draws.
var suiteSize = len(workloads.All())

// daemon is an in-process lbad: a serve.Server on a fresh data directory
// behind an httptest listener.
type daemon struct {
	srv    *serve.Server
	web    *httptest.Server
	client *http.Client
	dir    string
	// ids are the live tenants in admission order; ops is the audit log
	// the requests so far should have produced.
	ids []int
	ops []string
}

// daemonConfig is the lbad default configuration at the benchmark's
// scale and seed.
func daemonConfig(o options) serve.Config {
	return serve.Config{Scale: o.scale, Seed: o.seed}
}

func startDaemon(o options) (*daemon, error) {
	dir, err := os.MkdirTemp(o.workdir, "lbad-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(daemonConfig(o), dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := srv.Handler()
	if o.wrap != nil {
		h = o.wrap(h)
	}
	web := httptest.NewServer(h)
	return &daemon{srv: srv, web: web, dir: dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: time.Minute}}, nil
}

// close stops the listener and the server and checks the durable audit
// log against the requests that were acknowledged.
func (d *daemon) close() error {
	d.web.Close()
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if err == nil {
		err = d.checkAudit()
	}
	os.RemoveAll(d.dir)
	return err
}

// checkAudit reopens the data directory and compares its audit log with
// the decisions the daemon acknowledged.
func (d *daemon) checkAudit() error {
	st, err := serve.Open(d.dir)
	if err != nil {
		return err
	}
	defer st.Close()
	entries := st.Entries()
	if len(entries) != len(d.ops) {
		return fmt.Errorf("audit log holds %d entries, %d decisions were acknowledged", len(entries), len(d.ops))
	}
	for i, e := range entries {
		if e.Op != d.ops[i] {
			return fmt.Errorf("audit entry %d is %q, want %q", i+1, e.Op, d.ops[i])
		}
	}
	return nil
}

// do sends one request and returns its status and body.
func (d *daemon) do(ctx context.Context, method, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.web.URL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// expect turns an unexpected status into an error.
func expect(what string, got, want int, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if got != want {
		return fmt.Errorf("%s: status %d, want %d", what, got, want)
	}
	return nil
}

// post sends one admission request for the next suite draw and books
// the decision the daemon logs: an admit, or a reject when the 409
// carries the admission decision (a 409 at the tenant cap is not
// logged).
func (d *daemon) post(ctx context.Context) (int, error) {
	code, body, err := d.do(ctx, http.MethodPost, "/v1/tenants")
	if err != nil {
		return 0, err
	}
	switch code {
	case http.StatusCreated:
		var ar serve.AdmitResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			return code, fmt.Errorf("POST /v1/tenants: %w", err)
		}
		d.ids = append(d.ids, ar.Tenant.ID)
		d.ops = append(d.ops, "admit")
	case http.StatusConflict:
		var er serve.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return code, fmt.Errorf("POST /v1/tenants: %w", err)
		}
		if er.Admission != nil {
			d.ops = append(d.ops, "reject")
		}
	}
	return code, nil
}

// admit posts a suite draw, expecting want (201 or 409).
func (d *daemon) admit(ctx context.Context, want int) error {
	code, err := d.post(ctx)
	return expect("POST /v1/tenants", code, want, err)
}

// evictOldest deletes the longest-admitted tenant, expecting 202.
func (d *daemon) evictOldest(ctx context.Context) error {
	if len(d.ids) == 0 {
		return fmt.Errorf("DELETE: no live tenant")
	}
	code, _, err := d.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/tenants/%d", d.ids[0]))
	if err := expect("DELETE /v1/tenants", code, http.StatusAccepted, err); err != nil {
		return err
	}
	d.ids = d.ids[1:]
	d.ops = append(d.ops, "evict")
	return nil
}

// fill admits suite draws until the daemon rejects one, then waits for
// the population's replay. It returns the population at the cap.
func (d *daemon) fill(ctx context.Context, b *bench) (int, error) {
	for {
		code, err := d.post(ctx)
		if !b.op(err) {
			return 0, err
		}
		if code == http.StatusConflict {
			break
		}
		if code != http.StatusCreated {
			err := fmt.Errorf("filling the pool: status %d", code)
			b.fail(err)
			return 0, err
		}
	}
	if len(d.ids) == 0 {
		return 0, fmt.Errorf("the daemon rejects its first tenant")
	}
	return len(d.ids), d.srv.WaitIdle(ctx)
}

// churnSamples are the latencies one run of serving traffic measured.
type churnSamples struct {
	reject, admit, evict       []float64 // HTTP round trips, ms
	admitFresh, evictFresh     []float64 // request sent to WaitIdle returning, ms
	readSend, readDue, readLag []float64 // ms
	// cycleMS holds the completed cycles' lengths, less the time spent
	// mirroring decisions on the replica, by the program the cycle
	// admitted (its position in the round of suite draws).
	cycleMS  [][]float64
	attempts int // writer cycles started
}

// replica asks, on the benchmark's own engine and store, what one daemon
// decision asks: the admission query and the synced audit append. Traced
// runs record both as spans of the request, so the two can be set
// against the HTTP round trip.
type replica struct {
	eng   *tenant.Engine
	store *serve.Store
	dir   string
	o     options
	// query and append times, ms: the queries by decision.
	rejectMS, admitMS, appendMS []float64
}

func newReplica(ctx context.Context, o options, population int) (*replica, error) {
	dir, err := os.MkdirTemp(o.workdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := serve.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r := &replica{eng: tenant.NewEngine(warmWorkers, nil), store: st, dir: dir, o: o}
	// Warm the private engine: profile every tenant the questions use.
	for _, n := range []int{population - 1, population} {
		if _, err := r.query(ctx, n); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// query is the daemon's admission question at live population n.
func (r *replica) query(ctx context.Context, n int) ([]tenant.AdmissionPoint, error) {
	seed := r.o.seed
	if seed == 0 {
		seed = serve.DefaultSeed
	}
	return r.eng.PlanAdmissionQuery(ctx,
		workloads.Config{Scale: r.o.scale, Seed: seed, Threads: serve.DefaultThreads},
		core.DefaultConfig(),
		tenant.AdmissionQuery{
			Pool:       tenant.PoolConfig{Cores: 2, Policy: tenant.PolicyLeastLag},
			SLOs:       []float64{serve.DefaultSLO},
			MaxTenants: n + 1,
		})
}

// mirror replays one decision under the request's span: the reject
// asked at population n, or the admit asked at n-1.
func (r *replica) mirror(ctx context.Context, b *bench, parent, req int64, n int, op string) error {
	sp := b.tr.begin("tenant.Engine.PlanAdmissionQuery", parent, req)
	_, qerr := r.query(ctx, n)
	if op == "reject" {
		r.rejectMS = append(r.rejectMS, ms(sp.end()))
	} else {
		r.admitMS = append(r.admitMS, ms(sp.end()))
	}
	sp = b.tr.begin("serve.Store.Append", parent, req)
	_, aerr := r.store.Append(serve.AuditEntry{Op: op, Population: n, SLO: serve.DefaultSLO})
	r.appendMS = append(r.appendMS, ms(sp.end()))
	return errors.Join(qerr, aerr)
}

func (r *replica) close() {
	r.store.Close()
	os.RemoveAll(r.dir)
}

// serveRounds drives the serving traffic on a filled daemon: the closed-loop
// writer cycles reject → evict oldest → WaitIdle → admit → WaitIdle for
// the given rounds of one suite's worth of draws, while the open-loop
// reader sends readRate reads per second across the read endpoints.
// warmup cycles run first, untimed and without reads.
func serveRounds(ctx context.Context, b *bench, d *daemon, rep *replica, population, warmup, rounds int) (*churnSamples, error) {
	s := &churnSamples{}
	for i := 0; i < warmup; i++ {
		if err := cycle(ctx, b, d, nil, population, s); err != nil {
			return nil, err
		}
	}
	*s = churnSamples{cycleMS: make([][]float64, suiteSize)}

	stop := make(chan struct{})
	readDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(readDone)
		reader(ctx, b, d, start, stop, s)
	}()
	var err error
	for err == nil && s.attempts < rounds*suiteSize {
		err = cycle(ctx, b, d, rep, population, s)
	}
	close(stop)
	<-readDone
	return s, err
}

// cycle is one writer cycle. Samples are appended to s; rep, when
// non-nil, mirrors the admission decisions.
func cycle(ctx context.Context, b *bench, d *daemon, rep *replica, population int, s *churnSamples) error {
	program := s.attempts % suiteSize
	s.attempts++
	req := b.tr.request()
	cyc := b.tr.begin("loadgen.cycle", 0, req)
	defer cyc.end()
	start := time.Now()

	sp := b.tr.begin("serve.reject", cyc.id, req)
	err := d.admit(ctx, http.StatusConflict)
	s.reject = append(s.reject, ms(sp.end()))
	if !b.op(err) {
		return nil // the cycle's status sequence is broken; count it and carry on
	}

	t0 := time.Now()
	sp = b.tr.begin("serve.evict", cyc.id, req)
	err = d.evictOldest(ctx)
	s.evict = append(s.evict, ms(sp.end()))
	if !b.op(err) {
		return nil
	}
	sp = b.tr.begin("serve.Server.WaitIdle", cyc.id, req)
	err = d.srv.WaitIdle(ctx)
	sp.end()
	s.evictFresh = append(s.evictFresh, ms(time.Since(t0)))
	if !b.op(err) {
		return err
	}

	t0 = time.Now()
	sp = b.tr.begin("serve.admit", cyc.id, req)
	err = d.admit(ctx, http.StatusCreated)
	s.admit = append(s.admit, ms(sp.end()))
	if !b.op(err) {
		return nil
	}
	sp = b.tr.begin("serve.Server.WaitIdle", cyc.id, req)
	err = d.srv.WaitIdle(ctx)
	sp.end()
	s.admitFresh = append(s.admitFresh, ms(time.Since(t0)))
	if !b.op(err) {
		return err
	}
	if s.cycleMS != nil {
		s.cycleMS[program] = append(s.cycleMS[program], ms(time.Since(start)))
	}

	if rep != nil {
		b.op(rep.mirror(ctx, b, cyc.id, req, population, "reject"))
		b.op(rep.mirror(ctx, b, cyc.id, req, population-1, "admit"))
	}
	return nil
}

// reader is the open-loop client: read i is due at start + i/readRate
// and is timed from when it was due, so a read queued behind a stalled
// one counts the stall. Its lag is how late it sent beyond what its own
// previous read forced: the generator's slack, not the daemon's.
func reader(ctx context.Context, b *bench, d *daemon, start time.Time, stop <-chan struct{}, s *churnSamples) {
	interval := time.Second / readRate
	timer := time.NewTimer(interval)
	defer timer.Stop()
	parent := b.tr.begin("loadgen.reader", 0, 0)
	defer parent.end()
	var prev time.Time // when the previous read returned
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		path := readPaths[i%len(readPaths)]
		sp := b.tr.begin("serve.read", parent.id, b.tr.request())
		ready := due
		if prev.After(due) {
			ready = prev
		}
		s.readLag = append(s.readLag, ms(time.Since(ready)))
		code, _, err := d.do(ctx, http.MethodGet, path)
		s.readSend = append(s.readSend, ms(sp.end()))
		prev = time.Now()
		s.readDue = append(s.readDue, ms(prev.Sub(due)))
		b.op(expect("GET "+path, code, http.StatusOK, err))
	}
}

// setServingMetrics records the serving metrics and, on a
// traced run, its replica's.
func setServingMetrics(b *bench, s *churnSamples, rep *replica) {
	if rep != nil {
		// The mean of the two decisions' medians: a median over both
		// would sit in the gap between them.
		b.set("tenant.admission_ms", (median(rep.rejectMS)+median(rep.admitMS))/2)
		b.set("serve.store_append_ms", median(rep.appendMS))
	}
	b.set("serve.admit_ms", median(s.admit))
	b.set("serve.reject_ms", median(s.reject))
	b.set("serve.evict_ms", median(s.evict))
	b.set("serve.read_ms", median(s.readSend))
	b.set("serve.admit_fresh_ms", median(s.admitFresh))
	b.set("serve.evict_fresh_ms", median(s.evictFresh))
	b.set("loadgen.read_p50_ms", quantile(s.readDue, 0.5))
	b.set("loadgen.read_p99_ms", quantile(s.readDue, 0.99))
	b.set("loadgen.read_lag_p99_ms", quantile(s.readLag, 0.99))
}

// runChurn drives the lbad daemon at its defaults. Set-up starts a
// daemon on a fresh data directory and admits suite draws until the
// first rejection, o.setups times; the last daemon serves the run. The
// writer then cycles through the rest of the first round of draws
// untimed, so every tenant admitted while timing is profiled fresh, and
// the measured phase spans whole rounds.
func runChurn(ctx context.Context, b *bench) error {
	o := b.o
	var d *daemon
	var population int
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if d != nil {
			if err := d.close(); !b.op(err) {
				return err
			}
		}
		sp := b.tr.begin("setup.lbad", 0, 0)
		var err error
		if d, err = startDaemon(o); err != nil {
			return err
		}
		population, err = d.fill(ctx, b)
		setups = append(setups, sp.end().Seconds())
		if err != nil {
			d.close()
			return err
		}
	}
	b.set("setup_s", quantile(setups, 0))

	var rep *replica
	if b.tr != nil {
		var err error
		if rep, err = newReplica(ctx, o, population); err != nil {
			d.close()
			return err
		}
		defer rep.close()
	}
	// The run is a fixed number of rounds, so the profiles the daemon
	// keeps, and with them live_heap_mb, do not depend on its speed.
	rounds := max(1, int(math.Round(o.seconds/roundSeconds)))
	s, err := serveRounds(ctx, b, d, rep, population, suiteSize-population, rounds)
	if err != nil {
		d.close()
		return err
	}
	b.set("live_heap_mb", liveHeapMB())
	b.set(endToEndName(b, "work_per_s"), float64(suiteSize)/(sumOfMins(s.cycleMS)/1e3))
	b.set(endToEndName(b, "op_min_ms"), quantile(s.admit, 0))
	setServingMetrics(b, s, rep)
	b.op(d.close())
	return nil
}
