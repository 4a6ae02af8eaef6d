// Command e2ebench is the repository's end-to-end benchmark. It drives
// one workload in-process for a fixed time, checks every answer, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run) as the last line of standard output:
//
//	go run . --workload casestudy-cold --seed 1 --seconds 30 --trace 0
//
// It is normally started through run.sh from the repository root, which
// builds it with every Go cache kept under .bench_build. BENCHMARK.json
// names the workloads and metrics; METRICS.md describes them and maps
// each layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// sloLimit is the per-session latency limit behind slo_met_frac.
const sloLimit = 250 * time.Millisecond

// setupReps is how many times each workload sets up per run; setup_s
// is their median.
const setupReps = 9

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	workers  int    // pool width: the host's CPU count
	workDir  string // this run's scratch directory under buildDir
}

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from: run.sh's build outputs, each run's
// scratch directory (removed at exit) and the traced runs' spans.
const buildDir = ".bench_build"

// sessionRec is one measured session.
type sessionRec struct {
	seq     int // position in the workload's seeded session sequence
	latency time.Duration
	end     time.Time // when the answer arrived
	// refused: admission said 429/503; errored: the session or a call
	// failed; wrong: an answer check failed.
	refused, errored, wrong bool
	aid, tagt               int // the report's intervention counts
	traced                  bool
}

func (s sessionRec) answered() bool { return !s.refused && !s.errored }
func (s sessionRec) ok() bool       { return s.answered() && !s.wrong }

// outcome is what a workload hands back for scoring.
type outcome struct {
	setups  []time.Duration
	samples []sessionRec
	// extraOps counts operations that are not sessions (corpus
	// uploads); extraFailed how many of them failed.
	extraOps, extraFailed int
	start                 time.Time     // when the measured window began
	window                time.Duration // measured wall time
	countWindow           int           // sessions [0, countWindow) feed the count metrics
	mallocs               uint64
	heapPeak              uint64
	layers                map[string]float64
	mismatches            []string
}

type workloadFunc func(ctx context.Context, cfg config, rec *recorder) (*outcome, error)

var workloads = map[string]workloadFunc{
	"casestudy-cold":  runCaseStudyCold,
	"synthetic-sweep": runSyntheticSweep,
	"daemon-mixed":    runDaemonMixed,
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: casestudy-cold, synthetic-sweep or daemon-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.duration <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	work := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	out, err := fn(context.Background(), cfg, rec)
	if err != nil {
		return err
	}
	for _, m := range out.mismatches {
		fmt.Println("MISMATCH", m)
	}
	// correct covers the answers given; refused sessions gave none and
	// show only in failed.
	t := score(out)
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: t.attempted + out.extraOps,
		Failed:    t.failed() + out.extraFailed,
		Metrics:   map[string]metricVal{},
	}

	if cfg.trace {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricVal{out.layers[m.name], m.unit}
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	} else {
		e2e, err := endToEnd(out, t)
		if err != nil {
			return err
		}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricVal{e2e[m.name], m.unit}
		}
	}
	printSummary(cfg, out, t, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricDef names a metric and its unit; the lists below must match
// BENCHMARK.json (a test checks it).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"session_p50_ms", "ms"},
	{"sessions_per_s", "1/s"},
	{"slo_met_frac", "frac"},
	{"aid_interventions_per_session", "count"},
	{"tagt_tests_per_session", "count"},
	{"allocs_per_session", "count"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"sim.collect_ms", "ms"},
	{"sim.seeds_swept", "count"},
	{"predicate.extract_ms", "ms"},
	{"predicate.preds", "count"},
	{"statdebug.rank_ms", "ms"},
	{"statdebug.fully_discriminative", "count"},
	{"acdag.build_ms", "ms"},
	{"acdag.nodes", "count"},
	{"core.discover_ms", "ms"},
	{"core.rounds", "count"},
	{"core.round_ms_p50", "ms"},
	{"core.batches", "count"},
	{"core.cache_hits", "count"},
	{"core.oracle_ms", "ms"},
	{"core.self_ms", "ms"},
	{"grouptest.tagt_ms", "ms"},
	{"grouptest.tests", "count"},
	{"explain.ms", "ms"},
	{"synthetic.generate_ms", "ms"},
	{"service.http_post_ms_p50", "ms"},
	{"service.report_ms_p50", "ms"},
	{"service.ingest_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.result_cache_hit_frac", "frac"},
	{"service.memo_hit_frac", "frac"},
	{"service.refused", "count"},
	{"durable.recovery_ms", "ms"},
	{"durable.persist_errors", "count"},
	{"durable.log_bytes", "B"},
	{"bench.generator_lag_p90_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.traced_sessions", "count"},
}

// score tallies every measured session.
func score(out *outcome) tally {
	var t tally
	for _, s := range out.samples {
		t.attempted++
		switch {
		case s.refused:
			t.refused++
		case s.errored:
			t.errored++
		case s.wrong:
			t.wrong++
		case s.latency <= sloLimit:
			t.sloMet++
		}
	}
	return t
}

// windowSlices is how many equal parts of the measured window the latency
// percentiles and throughput are taken over; each is reported as the
// median of its per-slice values, so a host stall of a few seconds
// moves one slice rather than the whole figure.
const windowSlices = 5

// sliced splits the answered sessions by the slice their answer
// arrived in; answers after the window (an open loop's drain) go to
// the last slice.
func sliced(out *outcome) [][]float64 {
	parts := make([][]float64, windowSlices)
	w := out.window / windowSlices
	for _, s := range out.samples {
		if !s.answered() {
			continue
		}
		k := min(max(int(s.end.Sub(out.start)/w), 0), windowSlices-1)
		parts[k] = append(parts[k], ms(s.latency))
	}
	return parts
}

// slicedPercentile is the median over slices of each slice's q-quantile.
func slicedPercentile(parts [][]float64, q float64) (float64, error) {
	vals := make([]float64, len(parts))
	for k, p := range parts {
		v, err := percentile(p, q)
		if err != nil {
			return 0, fmt.Errorf("slice %d: %w", k+1, err)
		}
		vals[k] = v
	}
	return median(vals), nil
}

func endToEnd(out *outcome, t tally) (map[string]float64, error) {
	parts := sliced(out)
	p50, err := slicedPercentile(parts, 0.5)
	if err != nil {
		return nil, fmt.Errorf("session_p50_ms: %w", err)
	}
	rates := make([]float64, len(parts))
	for k, p := range parts {
		rates[k] = float64(len(p)) / (out.window / windowSlices).Seconds()
	}
	var aidSum, tagtSum, counted float64
	for _, s := range out.samples {
		if s.seq < out.countWindow && s.ok() {
			aidSum += float64(s.aid)
			tagtSum += float64(s.tagt)
			counted++
		}
	}
	if counted == 0 {
		return nil, fmt.Errorf("no correct session inside the count window")
	}
	setups := make([]float64, len(out.setups))
	for i, d := range out.setups {
		setups[i] = d.Seconds()
	}
	return map[string]float64{
		"session_p50_ms":                p50,
		"sessions_per_s":                median(rates),
		"slo_met_frac":                  t.sloMetFrac(),
		"aid_interventions_per_session": aidSum / counted,
		"tagt_tests_per_session":        tagtSum / counted,
		"allocs_per_session":            float64(out.mallocs) / float64(t.attempted),
		"heap_peak_mb":                  float64(out.heapPeak) / (1 << 20),
		"setup_s":                       median(setups),
	}, nil
}

func printSummary(cfg config, out *outcome, t tally, res result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("workload %s seed %d: %s metrics over %.1fs, %d sessions attempted, pool width %d\n",
		cfg.workload, cfg.seed, mode, out.window.Seconds(), t.attempted, cfg.workers)
	fmt.Printf("  %-34s %12.4f frac  (%d failed of %d operations: %d refused, %d errored, %d wrong)\n",
		"error_frac", errorFrac(res.Failed, res.Attempted), res.Failed, res.Attempted,
		t.refused, t.errored+out.extraFailed, t.wrong)
	fmt.Printf("  %-34s %12.4f frac  (limit %v)\n", "slo_miss_frac", 1-t.sloMetFrac(), sloLimit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	n := t.attempted - t.refused - t.errored
	for _, name := range names {
		m := res.Metrics[name]
		note := ""
		if strings.HasPrefix(name, "session_p") {
			note = fmt.Sprintf("  (n=%d, median of %d slices)", n, windowSlices)
		}
		fmt.Printf("  %-34s %12.4f %s%s\n", name, m.Value, m.Unit, note)
	}
	if !cfg.trace {
		fmt.Println(p90Line(out))
	}
}

// p90Line is session_p90_ms for the summary, taken over every answered
// session of the window, or the reason it is refused. It is left out of
// the result line: on a shared 2-CPU host it moved 30-60% between runs
// of one seed, wider than any bound a gate can hold.
func p90Line(out *outcome) string {
	var all []float64
	for _, p := range sliced(out) {
		all = append(all, p...)
	}
	v, err := percentile(all, 0.9)
	if err != nil {
		return fmt.Sprintf("  %-34s refused: %v", "session_p90_ms", err)
	}
	return fmt.Sprintf("  %-34s %12.4f ms  (n=%d, whole window; not gated)", "session_p90_ms", v, len(all))
}

// memWatch measures allocations and the peak live heap over a window:
// the largest heap any garbage collection in the window found live,
// polled from runtime/metrics every 10 ms (which does not stop the
// world). Live heap, not heap in use, so the figure does not swing
// with where collections happen to fall.
type memWatch struct {
	start  runtime.MemStats
	stop   chan struct{}
	done   sync.WaitGroup
	peak   uint64
	sample []metrics.Sample
}

func startMemWatch() *memWatch {
	w := &memWatch{stop: make(chan struct{}),
		sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	// The live-heap gauge reports the last collection; force one so the
	// first sample is the window's start, not leftover set-up state.
	runtime.GC()
	runtime.ReadMemStats(&w.start)
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			w.read()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *memWatch) read() {
	metrics.Read(w.sample)
	if v := w.sample[0].Value.Uint64(); v > w.peak {
		w.peak = v
	}
}

// finish stops sampling and returns the mallocs since start and the
// peak live heap. A last forced collection measures what the window
// left live, so the peak never hangs on when the final automatic
// collection happened to run.
func (w *memWatch) finish() (mallocs, peak uint64) {
	close(w.stop)
	w.done.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	runtime.GC()
	w.read()
	return end.Mallocs - w.start.Mallocs, w.peak
}

// timedSetups runs setup setupReps times and returns each duration and
// the last state; earlier states are released with discard.
func timedSetups[T any](setup func() (T, error), discard func(T)) ([]time.Duration, T, error) {
	var durs []time.Duration
	var last T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return nil, last, err
		}
		durs = append(durs, time.Since(t0))
		last = st
	}
	return durs, last, nil
}
