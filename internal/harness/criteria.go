package harness

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CriteriaExt is the criteria file suffix: a scenario with id X reads its
// expectations from <criteria dir>/X.criteria.
const CriteriaExt = ".criteria"

// ViolationExpect is one entry of an expected violation set: a violation
// kind and the exact count expected, or Count -1 for "at least one".
type ViolationExpect struct {
	Kind  string
	Count int
}

// Criteria are one scenario's validation expectations, parsed from its
// criteria file. Unset bounds (nil pointers) are simply not checked; the
// zero value passes everything, which is why ParseCriteria rejects files
// with no recognised keys.
type Criteria struct {
	// ExpectViolations is the exact expected violation-kind set ("none"
	// parses to an empty, non-nil set): kinds observed but not listed
	// fail, listed kinds with a count fail unless the count matches.
	ExpectViolations []ViolationExpect
	HasViolations    bool // distinguishes "unchecked" from "expect none"

	// Slowdown/SLO bounds. Single scenarios check the run's slowdown vs
	// its unmonitored baseline; pool scenarios check the cell aggregates.
	MaxSlowdownX     *float64
	MinSlowdownX     *float64
	MaxMeanSlowdownX *float64
	MaxContentionX   *float64
	MaxLagP95Cycles  *uint64

	// Churn expectations (pool scenarios replaying a churn layout).
	MinPeakConcurrency *int
	MaxPeakConcurrency *int

	// Admission expectations.
	ExpectMaxTenants   *int
	ExpectFallbackScan *bool

	// CheckDeterminism re-executes the scenario on a fresh serial engine
	// and requires a byte-identical artifact. CheckDifferential (single
	// scenarios only) requires the DBI oracle to report the LBA run's
	// violation set. Pool rows are compared with the per-record replay
	// reference in the tenant package's tests instead.
	CheckDeterminism  bool
	CheckDifferential bool
}

// ParseCriteria reads a criteria file: one "key: value" pair per line,
// '#' comments and blank lines ignored. Unknown keys, repeated keys,
// NaN/negative bounds and inverted min/max pairs are all rejected here,
// before any simulation runs.
func ParseCriteria(r io.Reader) (*Criteria, error) {
	c := &Criteria{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, value, ok := strings.Cut(text, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: %q is not a \"key: value\" pair", line, text)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate key %q", line, key)
		}
		seen[key] = true
		if err := c.set(key, value); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("no criteria: an empty file would pass every run")
	}
	if c.MinSlowdownX != nil && c.MaxSlowdownX != nil && *c.MinSlowdownX > *c.MaxSlowdownX {
		return nil, fmt.Errorf("min_slowdown_x %g exceeds max_slowdown_x %g", *c.MinSlowdownX, *c.MaxSlowdownX)
	}
	if c.MinPeakConcurrency != nil && c.MaxPeakConcurrency != nil && *c.MinPeakConcurrency > *c.MaxPeakConcurrency {
		return nil, fmt.Errorf("min_peak_concurrency %d exceeds max_peak_concurrency %d",
			*c.MinPeakConcurrency, *c.MaxPeakConcurrency)
	}
	return c, nil
}

func (c *Criteria) set(key, value string) error {
	switch key {
	case "expect_violations":
		set, err := parseViolationSet(value)
		if err != nil {
			return err
		}
		c.ExpectViolations, c.HasViolations = set, true
	case "max_slowdown_x":
		return boundFloat(&c.MaxSlowdownX, key, value)
	case "min_slowdown_x":
		return boundFloat(&c.MinSlowdownX, key, value)
	case "max_mean_slowdown_x":
		return boundFloat(&c.MaxMeanSlowdownX, key, value)
	case "max_contention_x":
		return boundFloat(&c.MaxContentionX, key, value)
	case "max_lag_p95_cycles":
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("%s %q is not a non-negative cycle count", key, value)
		}
		c.MaxLagP95Cycles = &v
	case "min_peak_concurrency":
		return boundInt(&c.MinPeakConcurrency, key, value)
	case "max_peak_concurrency":
		return boundInt(&c.MaxPeakConcurrency, key, value)
	case "expect_max_tenants":
		return boundInt(&c.ExpectMaxTenants, key, value)
	case "expect_fallback_scan":
		v, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("%s %q is not a bool", key, value)
		}
		c.ExpectFallbackScan = &v
	case "check_determinism":
		return boundBool(&c.CheckDeterminism, key, value)
	case "check_differential":
		return boundBool(&c.CheckDifferential, key, value)
	default:
		return fmt.Errorf("unknown criteria key %q", key)
	}
	return nil
}

func boundFloat(dst **float64, key, value string) error {
	v, err := strconv.ParseFloat(value, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s %q is not a finite non-negative bound", key, value)
	}
	*dst = &v
	return nil
}

func boundInt(dst **int, key, value string) error {
	v, err := strconv.Atoi(value)
	if err != nil || v < 0 {
		return fmt.Errorf("%s %q is not a non-negative integer", key, value)
	}
	*dst = &v
	return nil
}

func boundBool(dst *bool, key, value string) error {
	v, err := strconv.ParseBool(value)
	if err != nil {
		return fmt.Errorf("%s %q is not a bool", key, value)
	}
	*dst = v
	return nil
}

// parseViolationSet parses "none" or a comma-separated list of
// "kind" (at least one) / "kind=count" (exactly count) entries.
func parseViolationSet(value string) ([]ViolationExpect, error) {
	if value == "none" {
		return []ViolationExpect{}, nil
	}
	if value == "" {
		return nil, fmt.Errorf("expect_violations needs \"none\" or a kind list")
	}
	var set []ViolationExpect
	seen := map[string]bool{}
	for _, entry := range strings.Split(value, ",") {
		entry = strings.TrimSpace(entry)
		kind, countStr, hasCount := strings.Cut(entry, "=")
		kind = strings.TrimSpace(kind)
		if kind == "" || kind == "none" {
			return nil, fmt.Errorf("expect_violations entry %q: \"none\" cannot be combined with kinds", entry)
		}
		if seen[kind] {
			return nil, fmt.Errorf("expect_violations lists kind %q twice", kind)
		}
		seen[kind] = true
		count := -1
		if hasCount {
			v, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("expect_violations entry %q: count must be a positive integer", entry)
			}
			count = v
		}
		set = append(set, ViolationExpect{Kind: kind, Count: count})
	}
	return set, nil
}

// LoadCriteria reads <dir>/<id>.criteria. A scenario without a criteria
// file is an error: an unvalidated scenario would report "pass" without
// checking anything.
func LoadCriteria(dir, id string) (*Criteria, error) {
	path := filepath.Join(dir, id+CriteriaExt)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("harness: scenario %q has no criteria file at %s", id, path)
		}
		return nil, err
	}
	defer f.Close()
	c, err := ParseCriteria(f)
	if err != nil {
		return nil, fmt.Errorf("harness: criteria %s: %v", path, err)
	}
	return c, nil
}

// LoadAllCriteria resolves one Criteria per scenario from dir and
// validates each against its scenario's kind.
func LoadAllCriteria(dir string, scenarios []Scenario) (map[string]*Criteria, error) {
	crit := make(map[string]*Criteria, len(scenarios))
	for _, s := range scenarios {
		c, err := LoadCriteria(dir, s.ID)
		if err != nil {
			return nil, err
		}
		if err := c.validateFor(s); err != nil {
			return nil, fmt.Errorf("harness: criteria for scenario %q: %v", s.ID, err)
		}
		crit[s.ID] = c
	}
	return crit, nil
}

// validateFor rejects criteria keys that cannot apply to the scenario's
// kind, so a misplaced bound fails loudly instead of silently passing.
func (c *Criteria) validateFor(s Scenario) error {
	poolOnly := func(name string, set bool) error {
		if set && s.Kind != KindPool {
			return fmt.Errorf("%s only applies to pool scenarios", name)
		}
		return nil
	}
	switch s.Kind {
	case KindSingle:
		if c.HasViolations {
			for _, e := range c.ExpectViolations {
				if !knownViolationKind(e.Kind) {
					return fmt.Errorf("expect_violations kind %q is not produced by any lifeguard", e.Kind)
				}
			}
		}
	case KindPool:
		// Pool cells carry per-tenant violation counts, not kinds; only
		// the "none" form is checkable.
		if c.HasViolations && len(c.ExpectViolations) > 0 {
			return fmt.Errorf("pool scenarios support only \"expect_violations: none\" (cells carry counts, not kinds)")
		}
		if c.CheckDifferential {
			return fmt.Errorf("check_differential does not apply to pool scenarios")
		}
	case KindAdmission:
		if c.HasViolations {
			return fmt.Errorf("expect_violations does not apply to admission scenarios")
		}
		if c.CheckDifferential {
			return fmt.Errorf("check_differential does not apply to admission scenarios")
		}
	}
	for _, b := range []struct {
		name string
		set  bool
	}{
		{"max_mean_slowdown_x", c.MaxMeanSlowdownX != nil},
		{"max_contention_x", c.MaxContentionX != nil},
		{"max_lag_p95_cycles", c.MaxLagP95Cycles != nil},
		{"min_peak_concurrency", c.MinPeakConcurrency != nil},
		{"max_peak_concurrency", c.MaxPeakConcurrency != nil},
	} {
		if err := poolOnly(b.name, b.set); err != nil {
			return err
		}
	}
	if (c.MaxSlowdownX != nil || c.MinSlowdownX != nil) && s.Kind == KindAdmission {
		return fmt.Errorf("slowdown bounds do not apply to admission scenarios")
	}
	if (c.MinPeakConcurrency != nil || c.MaxPeakConcurrency != nil) && s.Churn == 0 {
		return fmt.Errorf("peak-concurrency bounds need a churn layout (churn column > 0)")
	}
	if (c.ExpectMaxTenants != nil || c.ExpectFallbackScan != nil) && s.Kind != KindAdmission {
		return fmt.Errorf("admission expectations only apply to admission scenarios")
	}
	return nil
}

// knownViolationKinds are the kinds the five lifeguards can report
// (addrcheck, taintcheck, lockset, stackcheck, cacheprof).
var knownViolationKinds = map[string]bool{
	"use-after-free":      true,
	"double-free":         true,
	"leak":                true,
	"tainted-jump":        true,
	"data-race":           true,
	"stack-overflow":      true,
	"return-mismatch":     true,
	"return-without-call": true,
	"hot-miss-pc":         true,
}

func knownViolationKind(kind string) bool { return knownViolationKinds[kind] }
