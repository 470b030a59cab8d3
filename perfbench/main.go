// Command perfbench is the repository's benchmark: it runs one named
// workload against the LBA simulator, checks the outputs, and prints one
// JSON line of metrics.
//
//	bash perfbench/run.sh --workload cold-profile --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the run records spans around every call the benchmark makes into the
// simulator's packages, runs the per-layer probes, writes the spans to
// <workdir>/trace-<workload>-<seed>.json and prints the per-layer metrics.
// README.md lists the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned reference digests were taken at.
const defaultSeed = 0xB5EED

// defaultSetups is how many times a run repeats its workload's set-up.
const defaultSetups = 5

// defaultScale is the workload size (simulated instructions per program)
// every workload runs at; the pinned digests assume it.
const defaultScale = 200_000

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    int
	// setups is how many times the workload's set-up runs; setup_s
	// keeps the fastest.
	setups int
	// workdir holds the daemon data directories and the trace file.
	workdir string
	refs    refs

	// wrap, when set, wraps the daemon's HTTP handler (a test seam).
	wrap func(http.Handler) http.Handler
}

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(context.Context, *bench) error{
	"cold-profile": runCold,
	"warm-replay":  runWarm,
	"lbad-churn":   runChurn,
}

func main() {
	o := options{scale: defaultScale, setups: defaultSetups}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-profile, warm-replay or lbad-churn")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for daemon data and the trace file")
	writeRefs := flag.String("write-refs", "", "compute the reference digests at the default seed and scale, write them to this file and exit")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *writeRefs != "" {
		if err := pinRefs(ctx, *writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	pinned, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.refs = pinned
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and assembles its report. An error means the
// benchmark itself could not run; failed operations and output checks
// that do not match are counted in the report instead.
func run(ctx context.Context, o options) (*report, error) {
	drive, ok := workloadFuncs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{o: o, metrics: map[string]metric{}}
	if o.trace {
		b.tr = newTracer()
	}
	if err := drive(ctx, b); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	names := endToEnd
	if o.trace {
		if err := runProbes(ctx, b); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", o.workload, err)
		}
		path := fmt.Sprintf("%s/trace-%s-%d.json", o.workdir, o.workload, o.seed)
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		names = perLayer
	}
	rep := &report{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := b.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, m.name)
		}
		rep.Metrics[m.name] = v
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// bench is the state one run accumulates: operation counts, metrics and
// (on traced runs) spans.
type bench struct {
	o  options
	tr *tracer // nil on untraced runs

	mu        sync.Mutex
	attempted int64
	failed    int64
	logged    int
	metrics   map[string]metric
}

// op counts one attempted operation and, when err is non-nil, one
// failure. It reports whether the operation succeeded.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if b.logged < 20 {
		b.logged++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
	return false
}

// fail records a failed check against an operation already counted.
func (b *bench) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if b.logged < 20 {
		b.logged++
		fmt.Fprintln(os.Stderr, "perfbench: failed check:", err)
	}
}

// set records a metric; its unit comes from the metric tables.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// sumOfMins adds up each item's fastest repeat: the time one pass over
// the items takes with no item slowed by the host. The end-to-end
// timings are such best-of-N figures because on the shared 2-vCPU host
// this benchmark is sized for, medians of the same code moved by 10-20%
// from run to run with the neighbours' load, and the fastest repeats by
// 2-3%.
func sumOfMins(items [][]float64) float64 {
	var t float64
	for _, xs := range items {
		t += quantile(xs, 0)
	}
	return t
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
