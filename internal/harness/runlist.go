package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// Scenario kinds.
const (
	// KindSingle runs one benchmark under one lifeguard with one injected
	// bug and validates the violation set and slowdown.
	KindSingle = "single"
	// KindPool replays a suite tenant set against a shared lifeguard-core
	// pool and validates slowdown/lag/contention bounds.
	KindPool = "pool"
	// KindAdmission runs the bisection-based admission planner and
	// validates the admitted tenant count.
	KindAdmission = "admission"
)

// Defaults applied to empty runlist cells.
const (
	// DefaultScale keeps corpus scenarios fast while staying past
	// cache warm-up, matching the scales the golden tests pin.
	DefaultScale = 40_000
	// DefaultSeed is the workload seed the figures default to.
	DefaultSeed = 0xB5EED
	// DefaultThreads sizes the multithreaded benchmarks like the figures.
	DefaultThreads = 2
)

// Scenario is one parsed runlist row: a fully-resolved experiment
// description. Like runner.Job it is pure data — hashable, comparable,
// serialisable — so scenario execution memoizes through the same engines
// as the figures.
type Scenario struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`

	// Single-run selectors (KindSingle).
	Benchmark string            `json:"benchmark,omitempty"`
	Lifeguard string            `json:"lifeguard,omitempty"`
	Bug       workloads.BugKind `json:"bug,omitempty"`

	// Pool selectors (KindPool; KindAdmission reuses Policy/Pool/Churn
	// and reads Tenants as the search bound).
	Tenants   int       `json:"tenants,omitempty"`
	Policy    string    `json:"policy,omitempty"`
	Pool      int       `json:"pool,omitempty"`
	Weights   []float64 `json:"weights,omitempty"`
	Migration uint64    `json:"migration,omitempty"`
	Churn     float64   `json:"churn,omitempty"`
	Shards    int       `json:"shards,omitempty"`

	// SLO is the admission scenario's contention bound.
	SLO float64 `json:"slo,omitempty"`

	// Shared workload shape.
	Scale int    `json:"scale"`
	Seed  uint64 `json:"seed"`
}

// runlistHeader is the required first CSV record, in order. Keeping the
// order fixed keeps runlists diffable and error messages positional.
var runlistHeader = []string{
	"id", "kind", "benchmark", "lifeguard", "bug",
	"tenants", "policy", "pool", "weights", "migration", "churn", "shards",
	"scale", "seed", "slo",
}

// ParseRunlist reads a CSV runlist: a fixed header row, then one scenario
// per record ('#' lines are comments). Every cell is validated up front —
// unknown benchmarks, lifeguards, bugs and policies, duplicate IDs,
// malformed numbers and out-of-range pool shapes all fail here, before
// any simulation runs.
func ParseRunlist(r io.Reader) ([]Scenario, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.TrimLeadingSpace = true

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("harness: runlist header: %w", err)
	}
	if len(header) != len(runlistHeader) {
		return nil, fmt.Errorf("harness: runlist header has %d columns, want %d (%s)",
			len(header), len(runlistHeader), strings.Join(runlistHeader, ","))
	}
	for i, want := range runlistHeader {
		if strings.TrimSpace(header[i]) != want {
			return nil, fmt.Errorf("harness: runlist header column %d is %q, want %q", i+1, header[i], want)
		}
	}

	var scenarios []Scenario
	seen := map[string]bool{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("harness: runlist: %w", err)
		}
		line, _ := cr.FieldPos(0)
		s, err := parseScenario(rec)
		if err != nil {
			return nil, fmt.Errorf("harness: runlist line %d: %w", line, err)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("harness: runlist line %d: duplicate scenario id %q", line, s.ID)
		}
		seen[s.ID] = true
		scenarios = append(scenarios, s)
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("harness: runlist has no scenarios")
	}
	return scenarios, nil
}

// LoadRunlist parses the runlist at path.
func LoadRunlist(path string) ([]Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseRunlist(f)
}

// field accessors keyed by runlistHeader position.
type record []string

func (r record) get(col string) string {
	for i, name := range runlistHeader {
		if name == col {
			return strings.TrimSpace(r[i])
		}
	}
	panic("harness: unknown runlist column " + col)
}

func parseScenario(rec []string) (Scenario, error) {
	var s Scenario
	if len(rec) != len(runlistHeader) {
		return s, fmt.Errorf("has %d columns, want %d", len(rec), len(runlistHeader))
	}
	row := record(rec)

	s.ID = row.get("id")
	if s.ID == "" {
		return s, fmt.Errorf("empty scenario id")
	}
	for _, c := range s.ID {
		if c != '-' && c != '_' && (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return s, fmt.Errorf("scenario id %q: ids are lower-case [a-z0-9-_] (they name criteria and artifact files)", s.ID)
		}
	}
	s.Kind = row.get("kind")

	var err error
	if s.Scale, err = intCell(row, "scale", DefaultScale); err != nil {
		return s, err
	}
	if s.Scale <= 0 {
		return s, fmt.Errorf("scenario %q: scale must be > 0, got %d", s.ID, s.Scale)
	}
	if seed := row.get("seed"); seed == "" {
		s.Seed = DefaultSeed
	} else if s.Seed, err = strconv.ParseUint(seed, 0, 64); err != nil {
		return s, fmt.Errorf("scenario %q: seed %q: %v", s.ID, seed, err)
	}

	switch s.Kind {
	case KindSingle:
		if err := requireEmpty(row, s.ID, "a single scenario",
			"tenants", "policy", "pool", "weights", "migration", "churn", "shards", "slo"); err != nil {
			return s, err
		}
		s.Benchmark = row.get("benchmark")
		if _, err := workloads.ByName(s.Benchmark); err != nil {
			return s, fmt.Errorf("scenario %q: %v", s.ID, err)
		}
		s.Lifeguard = row.get("lifeguard")
		if !validLifeguard(s.Lifeguard) {
			return s, fmt.Errorf("scenario %q: unknown lifeguard %q (have %s)",
				s.ID, s.Lifeguard, strings.Join(core.LifeguardNames(), ", "))
		}
		if s.Bug, err = parseBug(row.get("bug")); err != nil {
			return s, fmt.Errorf("scenario %q: %v", s.ID, err)
		}

	case KindPool, KindAdmission:
		if err := requireEmpty(row, s.ID, "a "+s.Kind+" scenario (tenants are drawn from the suite)",
			"benchmark", "lifeguard", "bug"); err != nil {
			return s, err
		}
		s.Policy = row.get("policy")
		if s.Pool, err = intCell(row, "pool", 0); err != nil {
			return s, err
		}
		if s.Tenants, err = intCell(row, "tenants", 0); err != nil {
			return s, err
		}
		if s.Weights, err = tenant.ParseWeights(row.get("weights")); err != nil {
			return s, fmt.Errorf("scenario %q: %v", s.ID, err)
		}
		if s.Migration, err = uintCell(row, "migration"); err != nil {
			return s, err
		}
		if s.Churn, err = floatCell(row, "churn"); err != nil {
			return s, err
		}
		if err := (tenant.Churn{Rate: s.Churn}).Validate(); err != nil {
			return s, fmt.Errorf("scenario %q: %v", s.ID, err)
		}
		if s.Shards, err = intCell(row, "shards", 0); err != nil {
			return s, err
		}
		if err := s.poolConfig().Validate(); err != nil {
			return s, fmt.Errorf("scenario %q: %v", s.ID, err)
		}

		switch s.Kind {
		case KindPool:
			if s.Tenants < 1 {
				return s, fmt.Errorf("scenario %q: a pool scenario needs tenants >= 1, got %d", s.ID, s.Tenants)
			}
			if slo := row.get("slo"); slo != "" {
				return s, fmt.Errorf("scenario %q: slo only applies to admission scenarios", s.ID)
			}
		case KindAdmission:
			if s.Shards != 0 {
				return s, fmt.Errorf("scenario %q: admission searches replay the global pool; shards does not apply", s.ID)
			}
			if s.Tenants == 0 {
				s.Tenants = 2 * s.Pool // the sched figure's scan bound
			}
			if s.Tenants < 1 {
				return s, fmt.Errorf("scenario %q: admission search bound must be >= 1, got %d", s.ID, s.Tenants)
			}
			if s.SLO, err = floatCell(row, "slo"); err != nil {
				return s, err
			}
			if s.SLO <= 0 || math.IsInf(s.SLO, 0) || math.IsNaN(s.SLO) {
				return s, fmt.Errorf("scenario %q: admission slo must be a finite contention bound > 0, got %g", s.ID, s.SLO)
			}
		}

	default:
		return s, fmt.Errorf("scenario %q: unknown kind %q (have %s, %s, %s)",
			s.ID, s.Kind, KindSingle, KindPool, KindAdmission)
	}
	return s, nil
}

func requireEmpty(row record, id, what string, cols ...string) error {
	for _, col := range cols {
		if row.get(col) != "" {
			return fmt.Errorf("scenario %q: column %q does not apply to %s", id, col, what)
		}
	}
	return nil
}

func intCell(row record, col string, def int) (int, error) {
	cell := row.get(col)
	if cell == "" {
		return def, nil
	}
	v, err := strconv.Atoi(cell)
	if err != nil {
		return 0, fmt.Errorf("scenario %q: %s %q is not an integer", row.get("id"), col, cell)
	}
	return v, nil
}

func uintCell(row record, col string) (uint64, error) {
	cell := row.get(col)
	if cell == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(cell, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario %q: %s %q is not a non-negative integer", row.get("id"), col, cell)
	}
	return v, nil
}

func floatCell(row record, col string) (float64, error) {
	cell := row.get(col)
	if cell == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario %q: %s %q is not a number", row.get("id"), col, cell)
	}
	return v, nil
}

func validLifeguard(name string) bool {
	for _, n := range core.LifeguardNames() {
		if n == name {
			return true
		}
	}
	return false
}

func parseBug(name string) (workloads.BugKind, error) {
	if name == "" {
		return workloads.BugNone, nil
	}
	for b := workloads.BugNone; b <= workloads.BugRace; b++ {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown bug %q", name)
}
