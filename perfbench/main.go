// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public entry points, checks that every
// run is correct, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run) followed by one JSON result line.
//
//	bash perfbench/run.sh --workload maf-replay --seed 2023 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics, and how
// to read the traced run's span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"deepplan/internal/sim"
)

func main() {
	name := flag.String("workload", "", "workload to run: maf-replay, zoo-fleet, llm-observed or capacity-search")
	seed := flag.Int64("seed", -1, "input seed (-1: the workload's default seed)")
	seconds := flag.Int("seconds", 25, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1: run the traced run and print per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *seed < 0 {
		*seed = w.seed
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1,
		outDir: ".bench_build",
	}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// config is one invocation's settings.
type config struct {
	seed   int64
	budget time.Duration
	traced bool
	outDir string
	tiny   bool // test-sized inputs
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric on its own line, then the JSON result line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "metric %-28s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run measures the workload and returns its result. Informational lines
// (host fingerprint, digest, failures) go to info.
func run(w workload, cfg config, info io.Writer) (*result, error) {
	fmt.Fprintf(info, "host %s seed=%d\n", fingerprint(), cfg.seed)
	inputs, err := w.prepare(cfg.seed, cfg.tiny)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	s := &session{inputs: inputs, observe: w.observed}
	if cfg.traced {
		return tracedRun(w, s, cfg, info)
	}
	reps := s.measure(nil, cfg.budget*9/10, 3)
	setups := s.setupOnly(cfg.budget/10, reps)
	fmt.Fprintf(info, "workload %s inputs=%d reps=%d set-ups=%d\n", w.name, len(inputs), len(reps), len(setups))
	res := s.result(info, w.name)
	if len(reps) > 0 {
		res.Metrics = endToEnd(reps, setups)
	}
	return res, nil
}

// inputSeed derives the seed of a repetition's i-th input from the run's
// seed; input 0 uses the run's seed itself.
func inputSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// rep is one repetition: every input set up on a fresh fleet and served.
type rep struct {
	// Host-side measurements, one per input: set-up and run seconds,
	// bytes and count of heap allocations during the run, and peak
	// resident memory in MB.
	setups, runs, allocBytes, allocs, peaksMB []float64

	out outcome // combined over the inputs
	// spanMark and spanEnd delimit this repetition's spans in the tracer.
	spanMark, spanEnd int
}

// session measures repetitions of one workload and keeps the checks'
// verdicts.
type session struct {
	inputs   []setupFunc
	observe  bool
	reps     []rep
	digest   string
	attempts int
	failures int
	problems []string
}

// fail records a failed check.
func (s *session) fail(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// measure repeats the workload until the budget would be exceeded, with at
// least minReps repetitions. A failed repetition ends the measurement.
func (s *session) measure(t *tracer, budget time.Duration, minReps int) []rep {
	start := time.Now()
	var reps []rep
	for len(reps) < minReps || time.Since(start)+time.Since(start)/time.Duration(len(reps)) <= budget {
		r, ok := s.once(t, s.observe, 0)
		if !ok {
			break
		}
		reps = append(reps, r)
	}
	s.reps = append(s.reps, reps...)
	return reps
}

// setupOnly returns the set-up times of the measured repetitions plus
// those of further set-ups, without runs, for as long as the budget allows:
// on most workloads set-up takes milliseconds, and only many samples give a
// steady median.
func (s *session) setupOnly(budget time.Duration, reps []rep) []float64 {
	var times []float64
	for _, r := range reps {
		times = append(times, r.setups...)
	}
	start := time.Now()
	for i := 0; len(reps) > 0 && len(times) < 500 && time.Since(start)+time.Duration(medianOf(times)*1e9) <= budget; i++ {
		settle()
		begin := time.Now()
		if _, err := s.inputs[i%len(s.inputs)](nil, fleetOpts{observe: s.observe}); err != nil {
			s.fail("set-up: %v", err)
			break
		}
		times = append(times, time.Since(begin).Seconds())
	}
	return times
}

// once sets up and serves every input one time and checks the outcomes.
// With limit > 0 it serves only the first limit arrivals of input 0.
func (s *session) once(t *tracer, observe bool, limit int) (rep, bool) {
	r := rep{spanMark: t.mark()}
	inputs := s.inputs
	if limit > 0 {
		inputs = inputs[:1]
	}
	var outs []outcome
	for _, setup := range inputs {
		settle()
		start := time.Now()
		runFn, err := setup(t, fleetOpts{observe: observe, limit: limit})
		r.setups = append(r.setups, time.Since(start).Seconds())
		if err != nil {
			s.fail("set-up: %v", err)
			return r, false
		}
		// Collect the set-up's garbage, so every run starts from the same
		// heap and pays only for its own collections.
		runtime.GC()
		before := memStats()
		start = time.Now()
		out, err := runFn(t)
		r.runs = append(r.runs, time.Since(start).Seconds())
		after := memStats()
		r.allocBytes = append(r.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		r.allocs = append(r.allocs, float64(after.Mallocs-before.Mallocs))
		r.peaksMB = append(r.peaksMB, float64(peakRSS())/1e6)
		s.attempts += out.attempted
		s.failures += out.failed
		if err != nil {
			s.fail("run: %v", err)
			return r, false
		}
		if out.failed > 0 {
			s.fail("%d of %d simulated requests shed or lost", out.failed, out.attempted)
		}
		outs = append(outs, out)
	}
	r.spanEnd = t.mark()
	r.out = combine(outs)
	if limit == 0 && observe == s.observe {
		if s.digest == "" {
			s.digest = r.out.digest
		} else if r.out.digest != s.digest {
			s.fail("simulated report digest %s differs from the first repetition's %s", r.out.digest, s.digest)
			s.failures += r.out.attempted
		}
	}
	return r, true
}

// combine merges the outcomes of a repetition's inputs: totals of the
// request counts and export sizes, medians of the fleet statistics, means
// of the per-layer counts, and one digest over all reports.
func combine(outs []outcome) outcome {
	var c outcome
	digests := ""
	c.counts = map[string]float64{}
	for _, o := range outs {
		c.attempted += o.attempted
		c.failed += o.failed
		c.served += o.served
		c.traceBytes += o.traceBytes
		c.metricsBytes += o.metricsBytes
		c.heapBytes = max(c.heapBytes, o.heapBytes)
		digests += o.digest
		for k, v := range o.counts {
			c.counts[k] += v / float64(len(outs))
		}
	}
	stat := func(f func(outcome) float64) float64 {
		v := make([]float64, len(outs))
		for i, o := range outs {
			v[i] = f(o)
		}
		return medianOf(v)
	}
	c.p50 = sim.Duration(stat(func(o outcome) float64 { return float64(o.p50) }))
	c.p99 = sim.Duration(stat(func(o outcome) float64 { return float64(o.p99) }))
	c.coldP99 = sim.Duration(stat(func(o outcome) float64 { return float64(o.coldP99) }))
	c.ttftP99 = sim.Duration(stat(func(o outcome) float64 { return float64(o.ttftP99) }))
	c.goodput = stat(func(o outcome) float64 { return o.goodput })
	c.sustainedRPS = stat(func(o outcome) float64 { return o.sustainedRPS })
	if len(outs) == 1 {
		c.digest = outs[0].digest
	} else {
		c.digest = digestOf(digests)
	}
	return c
}

// result assembles the verdict; metrics are filled in by the caller.
func (s *session) result(info io.Writer, name string) *result {
	fmt.Fprintf(info, "digest %s %s\n", name, s.digest)
	frac := 0.0
	if s.attempts > 0 {
		frac = float64(s.failures) / float64(s.attempts)
	}
	fmt.Fprintf(info, "failed_frac %g (%d of %d)\n", frac, s.failures, s.attempts)
	for _, p := range s.problems {
		fmt.Fprintf(info, "check failed: %s\n", p)
	}
	attempted := max(s.attempts, 1)
	return &result{
		Correct:   len(s.problems) == 0 && len(s.reps) > 0,
		Attempted: attempted,
		Failed:    min(s.failures, attempted),
		Metrics:   map[string]metric{},
	}
}

// endToEnd computes the end-to-end metrics from the host-side
// measurements and the (deterministic) simulated fleet statistics.
func endToEnd(reps []rep, setups []float64) map[string]metric {
	o := reps[0].out
	runS := perInput(reps, func(r rep) []float64 { return r.runs })
	var peaks []float64
	for _, r := range reps {
		peaks = append(peaks, r.peaksMB...)
	}
	return map[string]metric{
		"setup_s":           {medianOf(setups), "s"},
		"run_s":             {runS, "s"},
		"sim_req_per_s":     {float64(o.served) / runS, "req/s"},
		"peak_rss_mb":       {medianOf(peaks), "MB"},
		"run_alloc_mb":      {perInput(reps, func(r rep) []float64 { return r.allocBytes }) / 1e6, "MB"},
		"run_allocs_m":      {perInput(reps, func(r rep) []float64 { return r.allocs }) / 1e6, "M"},
		"sim_p50_ms":        {o.p50.Seconds() * 1e3, "ms"},
		"sim_p99_ms":        {o.p99.Seconds() * 1e3, "ms"},
		"sim_cold_p99_ms":   {o.coldP99.Seconds() * 1e3, "ms"},
		"sim_ttft_p99_ms":   {o.ttftP99.Seconds() * 1e3, "ms"},
		"sim_goodput":       {o.goodput, "frac"},
		"sim_sustained_rps": {o.sustainedRPS, "req/s"},
	}
}

// perInput sums, over the inputs, each input's median across the
// repetitions. On a shared host a burst of load slows a few inputs of
// some repetitions; the medians drop those, where a median of the
// repetitions' totals would not once a burst spans two of them.
func perInput(reps []rep, f func(rep) []float64) float64 {
	total := 0.0
	for i := range f(reps[0]) {
		v := make([]float64, len(reps))
		for j, r := range reps {
			v[j] = f(r)[i]
		}
		total += medianOf(v)
	}
	return total
}

// median returns the median of f over the repetitions.
func median(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outPath names a file in the output directory.
func outPath(cfg config, kind, name, ext string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-%s-%d.%s", kind, name, cfg.seed, ext))
}
