package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// Config shapes one daemon instance. The zero value of every field has a
// serving default, applied by New.
type Config struct {
	// Pool is the shared lifeguard-core pool the live population replays
	// against; its shape (tenant.PoolConfig.Validate) and policy inputs
	// apply to every replay.
	Pool tenant.PoolConfig
	// SLO is the contention bound admission enforces (>= 1); admitting a
	// tenant must keep every tenant's contention factor within it.
	SLO float64
	// Scale, Seed and Threads shape admitted workloads (workloads.Config);
	// suite draws offset Seed per round exactly like tenant.FromSuite.
	Scale   int
	Seed    uint64
	Threads int
	// MaxTenants hard-caps the population regardless of the SLO, so the
	// admission memo holds at most this many answers. Default 64.
	MaxTenants int
	// Workers is the profiling pool width (0 = NumCPU).
	Workers int
}

// Defaults for Config's zero fields.
const (
	DefaultSLO        = 2.5
	DefaultScale      = 200_000
	DefaultSeed       = 0xB5EED
	DefaultThreads    = 2
	DefaultMaxTenants = 64
)

func (c Config) withDefaults() Config {
	if c.Pool.Cores == 0 {
		c.Pool.Cores = 2
	}
	if c.Pool.Policy == "" {
		c.Pool.Policy = tenant.PolicyLeastLag
	}
	if c.SLO == 0 {
		c.SLO = DefaultSLO
	}
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Threads == 0 {
		c.Threads = DefaultThreads
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = DefaultMaxTenants
	}
	return c
}

// workload is the workload shape of a tenant with the given seed.
func (c Config) workload(seed uint64) workloads.Config {
	return workloads.Config{Scale: c.Scale, Seed: seed, Threads: c.Threads}
}

func (c Config) validate() error {
	if c.SLO < 1 {
		return fmt.Errorf("serve: contention SLO %g < 1 can never be met", c.SLO)
	}
	if c.MaxTenants < 1 {
		return fmt.Errorf("serve: tenant cap must be >= 1, got %d", c.MaxTenants)
	}
	return c.Pool.Validate()
}

// liveTenant is one admitted tenant's server-side record.
type liveTenant struct {
	id       int
	tn       tenant.Tenant
	draw     int // 1 + suite draw consumed, 0 for explicit admissions
	draining bool
}

// Server is the daemon state machine: the live tenant set, the engine
// whose memoized profiles make re-simulation cheap, the durable store,
// and the background replay loop (control.go). All exported methods are
// safe for concurrent use.
type Server struct {
	cfg   Config
	eng   *tenant.Engine
	store *Store
	start time.Time
	// admission memoizes the admission question's answer, the worst
	// contention of the first n+1 suite draws, keyed by n.
	admission *runner.Memo[float64]

	root       context.Context
	rootCancel context.CancelFunc

	mu         sync.Mutex
	live       map[int]*liveTenant
	order      []int // admission order, the replay population order
	nextID     int
	draws      int // suite round-robin cursor
	popGen     int // bumped on every membership change
	resultGen  int // popGen the latest finished replay covered
	lastResult *tenant.PoolResult
	lastIDs    []int // result row -> tenant id
	lastErr    error // most recent replay or snapshot failure, nil after success
	cancelRun  context.CancelFunc

	admitted         uint64
	rejected         uint64
	evicted          uint64
	replays          uint64
	replaysCancelled uint64
	replayFailures   uint64 // replays or snapshot writes that failed

	kick chan struct{}
	done chan struct{}
	// idle is closed when resultGen catches up with popGen; nil while
	// they are equal (WaitIdle).
	idle chan struct{}

	// queryHook, when set, runs before each admission query, off the
	// lock. Only tests set it.
	queryHook func()
}

// New opens (or recovers) the store under dataDir and starts the replay
// loop. A recovered tenant set schedules an immediate re-simulation, so
// a restarted daemon converges to live status without any request.
func New(cfg Config, dataDir string) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	store, entries, err := open(dataDir)
	if err != nil {
		return nil, err
	}
	root, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        tenant.NewEngine(cfg.Workers, nil),
		store:      store,
		admission:  runner.NewMemo[float64](),
		start:      time.Now(),
		root:       root,
		rootCancel: cancel,
		live:       map[int]*liveTenant{},
		nextID:     1,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	if err := s.recover(entries); err != nil {
		cancel()
		store.Close()
		return nil, err
	}
	go s.controlLoop()
	// Unconditional first kick: a recovered tenant set re-simulates
	// immediately, and an empty daemon installs its (empty) result so
	// idleness and freshness hold from the start.
	s.kickReplay()
	return s, nil
}

// recover folds the audit entries read at open back into the live set: admits
// insert, evicts remove (an eviction is durable at request time — a drain
// that a crash interrupted does not resurrect the tenant), rejects are
// skipped. The draw cursor and id counter resume past the highest
// recorded, so post-restart admissions continue the same sequences. The
// entries are not kept once folded.
func (s *Server) recover(entries []AuditEntry) error {
	for _, e := range entries {
		switch e.Op {
		case "admit":
			if _, err := workloads.ByName(e.Benchmark); err != nil {
				return fmt.Errorf("serve: recovering admit seq %d: %w", e.Seq, err)
			}
			tn := s.benchmarkTenant(e.Name, e.Benchmark, e.Seed)
			s.live[e.TenantID] = &liveTenant{id: e.TenantID, tn: tn, draw: e.Draw}
			s.order = append(s.order, e.TenantID)
			if e.TenantID >= s.nextID {
				s.nextID = e.TenantID + 1
			}
			if e.Draw > s.draws {
				s.draws = e.Draw
			}
		case "evict":
			if _, ok := s.live[e.TenantID]; ok {
				delete(s.live, e.TenantID)
				s.order = removeID(s.order, e.TenantID)
			}
		case "reject":
			// Evidence only.
		default:
			return fmt.Errorf("serve: audit seq %d has unknown op %q", e.Seq, e.Op)
		}
	}
	s.bumpGenLocked()
	return nil
}

func removeID(order []int, id int) []int {
	for i, v := range order {
		if v == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// benchmarkTenant is an admitted tenant running one named benchmark
// under the daemon's workload shape. Recovery rebuilds admitted tenants
// with it, since an audit entry carries only what varies per tenant (a
// store belongs to one daemon configuration).
func (s *Server) benchmarkTenant(name, benchmark string, seed uint64) tenant.Tenant {
	return tenant.Tenant{
		Name:      name,
		Benchmark: benchmark,
		Lifeguard: tenant.DefaultLifeguard(benchmark),
		Workload:  s.cfg.workload(seed),
		Config:    core.DefaultConfig(),
	}
}

// AdmitRequest is the optional POST /v1/tenants body: empty (or an empty
// JSON object) draws the next suite tenant; an explicit benchmark admits
// that workload instead, under Name if given. A Name without a Benchmark
// and an unknown field are both rejected with 400. Explicit admissions diverge the live population
// from the suite-drawn population the admission check replays, so their
// check is an approximation (documented in docs/daemon.md).
type AdmitRequest struct {
	Benchmark string `json:"benchmark,omitempty"`
	Name      string `json:"name,omitempty"`
}

// AdmissionBand echoes the live admission decision in API responses:
// the worst contention factor the first population+1 suite draws
// measured, against the SLO it had to meet.
type AdmissionBand struct {
	SLO         float64 `json:"slo"`
	Population  int     `json:"population"`
	ContentionX float64 `json:"contention_x"`
}

func (b AdmissionBand) admits() bool { return b.ContentionX <= b.SLO }

// TenantStatus is one tenant's row in GET /v1/tenants. Result fields are
// pointers: nil until the first replay covering the tenant finishes.
type TenantStatus struct {
	ID         int      `json:"id"`
	Name       string   `json:"name"`
	Benchmark  string   `json:"benchmark"`
	Lifeguard  string   `json:"lifeguard"`
	Seed       uint64   `json:"seed"`
	State      string   `json:"state"` // admitted | draining
	Slowdown   *float64 `json:"slowdown,omitempty"`
	Contention *float64 `json:"contention_x,omitempty"`
	MeanLag    *float64 `json:"mean_lag_cycles,omitempty"`
	LagP95     *uint64  `json:"lag_p95_cycles,omitempty"`
}

// PoolStatus is GET /v1/pool: the pool's configuration plus the latest
// replay's aggregates (zero until the first replay finishes).
type PoolStatus struct {
	Cores           int     `json:"cores"`
	Policy          string  `json:"policy"`
	SLO             float64 `json:"slo"`
	MaxTenants      int     `json:"max_tenants"`
	LiveTenants     int     `json:"live_tenants"`
	Draining        int     `json:"draining"`
	Fresh           bool    `json:"fresh"` // latest replay covers the current population
	MeanSlowdown    float64 `json:"mean_slowdown"`
	MaxSlowdown     float64 `json:"max_slowdown"`
	MeanContentionX float64 `json:"mean_contention_x"`
	MaxContentionX  float64 `json:"max_contention_x"`
	Utilisation     float64 `json:"utilisation"`
	MakespanCycles  uint64  `json:"makespan_cycles"`
	PeakConcurrency int     `json:"peak_concurrency"`
	Replays         uint64  `json:"replays"`
	// LastError is the most recent replay or pool-snapshot failure,
	// empty after a replay that did both.
	LastError string `json:"last_error,omitempty"`
}

// AdmitResponse is the 201 body: the admitted tenant and the decision.
type AdmitResponse struct {
	Tenant    TenantStatus  `json:"tenant"`
	Admission AdmissionBand `json:"admission"`
}

// ErrorResponse is every non-2xx body; Admission carries the decision on
// SLO rejections (409).
type ErrorResponse struct {
	Error     string         `json:"error"`
	Admission *AdmissionBand `json:"admission,omitempty"`
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", s.handleAdmit)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleEvict)
	mux.HandleFunc("GET /v1/pool", s.handlePool)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, band *AdmissionBand, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...), Admission: band})
}

// handleAdmit is the live admission path: replay the first n+1 suite
// draws (n is the live count), admit if no tenant's contention exceeds
// the SLO, persist the decision either way, and re-simulate on admit.
// The query runs off the server mutex, so reads, evictions and the
// replay loop never wait on it; the decision commits under the mutex
// only if the population it was asked for is still the live one, and is
// asked again for the new population otherwise. The question depends
// only on n, and its answer is memoized, so a repeated question replays
// nothing.
func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		writeError(w, http.StatusBadRequest, nil, "reading body: %v", err)
		return
	} else if len(body) > 0 {
		// A misspelt field must not fall back to a suite draw.
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
			err = errors.New("data after the request object")
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, nil, "malformed body: %v", err)
			return
		}
	}
	if req.Name != "" && req.Benchmark == "" {
		writeError(w, http.StatusBadRequest, nil, "name %q needs a benchmark: a suite draw keeps its suite name", req.Name)
		return
	}
	if req.Benchmark != "" {
		if _, err := workloads.ByName(req.Benchmark); err != nil {
			writeError(w, http.StatusBadRequest, nil, "%v", err)
			return
		}
	}

	s.mu.Lock()
	n := len(s.live)
	var band AdmissionBand
	for {
		if n >= s.cfg.MaxTenants {
			s.mu.Unlock()
			writeError(w, http.StatusConflict, nil,
				"population %d is at the configured cap of %d tenants", n, s.cfg.MaxTenants)
			return
		}
		s.mu.Unlock()
		var err error
		if band, err = s.ask(r.Context(), n); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				writeError(w, http.StatusServiceUnavailable, nil, "admission query aborted: %v", err)
				return
			}
			writeError(w, http.StatusInternalServerError, nil, "admission query: %v", err)
			return
		}
		s.mu.Lock()
		// Compare the count, not popGen: the answer depends only on n,
		// and the replay loop removes drained tenants without a new
		// generation.
		if len(s.live) == n {
			break
		}
		n = len(s.live)
	}
	defer s.mu.Unlock()

	if !band.admits() {
		if _, err := s.store.Append(AuditEntry{Op: "reject", Benchmark: req.Benchmark,
			SLO: band.SLO, Population: n, ContentionX: band.ContentionX}); err != nil {
			writeError(w, http.StatusInternalServerError, nil, "persisting rejection: %v", err)
			return
		}
		s.rejected++
		writeError(w, http.StatusConflict, &band,
			"admission denied: %d tenants measure %.2fX worst contention, above the %.2fX SLO; population is %d",
			n+1, band.ContentionX, band.SLO, n)
		return
	}

	// Build the tenant: next suite draw by default, explicit benchmark on
	// request.
	id := s.nextID
	var tn tenant.Tenant
	draw := 0
	if req.Benchmark == "" {
		tn = tenant.SuiteTenant(s.draws, s.cfg.workload(s.cfg.Seed), core.DefaultConfig())
		draw = s.draws + 1
	} else {
		if req.Name == "" {
			req.Name = fmt.Sprintf("%s@%d", req.Benchmark, id)
		}
		tn = s.benchmarkTenant(req.Name, req.Benchmark, s.cfg.Seed)
	}

	// Durability before visibility: the admit is acknowledged only once
	// its audit entry is synced.
	if _, err := s.store.Append(AuditEntry{Op: "admit", TenantID: id,
		Name: tn.Name, Benchmark: tn.Benchmark, Seed: tn.Workload.Seed, Draw: draw,
		SLO: band.SLO, Population: n, ContentionX: band.ContentionX}); err != nil {
		writeError(w, http.StatusInternalServerError, nil, "persisting admission: %v", err)
		return
	}
	s.nextID++
	if draw > 0 {
		s.draws = draw
	}
	s.live[id] = &liveTenant{id: id, tn: tn, draw: draw}
	s.order = append(s.order, id)
	s.admitted++
	s.membershipChangedLocked()

	writeJSON(w, http.StatusCreated, AdmitResponse{
		Tenant: TenantStatus{ID: id, Name: tn.Name, Benchmark: tn.Benchmark,
			Lifeguard: tn.Lifeguard, Seed: tn.Workload.Seed, State: "admitted"},
		Admission: band,
	})
}

// ask answers the admission question at live population n: the worst
// contention factor of one replay of the first n+1 suite draws on the
// configured pool, memoized by n. It is called without s.mu held.
func (s *Server) ask(ctx context.Context, n int) (AdmissionBand, error) {
	if s.queryHook != nil {
		s.queryHook()
	}
	x, err := s.admission.Do(ctx, strconv.Itoa(n), func() (float64, error) {
		pop, err := tenant.FromSuite(n+1, s.cfg.workload(s.cfg.Seed), core.DefaultConfig())
		if err != nil {
			return 0, err
		}
		res, err := s.eng.RunPool(ctx, pop, s.cfg.Pool)
		if err != nil {
			return 0, err
		}
		return res.MaxContentionX, nil
	})
	return AdmissionBand{SLO: s.cfg.SLO, Population: n, ContentionX: x}, err
}

// handleEvict starts a drain-then-release departure: the tenant is
// marked draining (durably), the replay loop re-simulates, and the
// tenant leaves the live set once that replay completes.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, nil, "tenant id %q is not an integer", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lt, ok := s.live[id]
	if !ok {
		writeError(w, http.StatusNotFound, nil, "no live tenant %d", id)
		return
	}
	if lt.draining {
		writeError(w, http.StatusConflict, nil, "tenant %d is already draining", id)
		return
	}
	if _, err := s.store.Append(AuditEntry{Op: "evict", TenantID: id,
		Name: lt.tn.Name, Benchmark: lt.tn.Benchmark, Seed: lt.tn.Workload.Seed}); err != nil {
		writeError(w, http.StatusInternalServerError, nil, "persisting eviction: %v", err)
		return
	}
	lt.draining = true
	s.evicted++
	s.membershipChangedLocked()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "name": lt.tn.Name, "state": "draining",
	})
}

// handleTenants lists the live set with the latest replay's per-tenant
// metrics where available.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byID := map[int]tenant.TenantResult{}
	if s.lastResult != nil {
		for i, id := range s.lastIDs {
			byID[id] = s.lastResult.Tenants[i]
		}
	}
	out := make([]TenantStatus, 0, len(s.order))
	for _, id := range s.order {
		lt := s.live[id]
		st := TenantStatus{ID: id, Name: lt.tn.Name, Benchmark: lt.tn.Benchmark,
			Lifeguard: lt.tn.Lifeguard, Seed: lt.tn.Workload.Seed, State: "admitted"}
		if lt.draining {
			st.State = "draining"
		}
		if tr, ok := byID[id]; ok {
			st.Slowdown = &tr.Slowdown
			st.Contention = &tr.ContentionX
			st.MeanLag = &tr.MeanLagCycles
			p95 := tr.LagP95Cycles
			st.LagP95 = &p95
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (s *Server) handlePool(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := PoolStatus{
		Cores:       s.cfg.Pool.Cores,
		Policy:      s.cfg.Pool.Policy,
		SLO:         s.cfg.SLO,
		MaxTenants:  s.cfg.MaxTenants,
		LiveTenants: len(s.live),
		Fresh:       s.resultGen == s.popGen,
		Replays:     s.replays,
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	for _, lt := range s.live {
		if lt.draining {
			st.Draining++
		}
	}
	if res := s.lastResult; res != nil {
		st.MeanSlowdown = res.MeanSlowdown
		st.MaxSlowdown = res.MaxSlowdown
		st.MeanContentionX = res.MeanContentionX
		st.MaxContentionX = res.MaxContentionX
		st.Utilisation = res.Utilisation
		st.MakespanCycles = res.MakespanCycles
		st.PeakConcurrency = res.PeakConcurrency
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics exposes plain-text counters, one "name value" per line,
// sorted by name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := map[string]string{
		"lbad_admitted_total":              strconv.FormatUint(s.admitted, 10),
		"lbad_rejected_total":              strconv.FormatUint(s.rejected, 10),
		"lbad_evicted_total":               strconv.FormatUint(s.evicted, 10),
		"lbad_replays_total":               strconv.FormatUint(s.replays, 10),
		"lbad_replays_cancelled_total":     strconv.FormatUint(s.replaysCancelled, 10),
		"lbad_replay_failures_total":       strconv.FormatUint(s.replayFailures, 10),
		"lbad_live_tenants":                strconv.Itoa(len(s.live)),
		"lbad_admission_memo_hits_total":   strconv.FormatUint(s.admission.Hits(), 10),
		"lbad_admission_memo_misses_total": strconv.FormatUint(s.admission.Misses(), 10),
		"lbad_audit_records":               strconv.Itoa(s.store.Len()),
		"lbad_uptime_seconds":              strconv.FormatInt(int64(time.Since(s.start).Seconds()), 10),
	}
	if res := s.lastResult; res != nil {
		m["lbad_pool_utilisation"] = strconv.FormatFloat(res.Utilisation, 'f', 4, 64)
		m["lbad_mean_contention_x"] = strconv.FormatFloat(res.MeanContentionX, 'f', 4, 64)
		m["lbad_max_contention_x"] = strconv.FormatFloat(res.MaxContentionX, 'f', 4, 64)
		m["lbad_makespan_cycles"] = strconv.FormatUint(res.MakespanCycles, 10)
	}
	s.mu.Unlock()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range names {
		fmt.Fprintf(w, "%s %s\n", name, m[name])
	}
}
