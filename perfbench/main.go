// Command perfbench is the layered end-to-end benchmark of hyperplex's
// shipped routes.  One run sets up one workload from its seed, then
// sends requests in a closed loop with one client — the next request
// starts when the previous one returns, as a CLI user waits — for the
// given number of seconds, checks every output against a reference
// computed in set-up, and prints its metrics.  The end-to-end times are
// scaled to a nominal host speed measured by a calibration kernel run
// between requests (see calibrate.go).
//
// Usage, from the repository root (perfbench/run.sh builds and runs):
//
//	perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 a separate run alternates untraced
// and traced requests and reports the per-layer metrics, derived from
// spans recorded around each call into a layer and written to
// .bench_build/spans/.  The traced run also times, on the same input,
// the layers its workload's route does not pass through: the other
// workload's route, the sharded engine and the dist runtime.  Earlier
// stdout lines stamp the machine and print every metric by name and
// unit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// metricSpec names a reported metric.  BENCHMARK.json lists the same
// names, units and directions.
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"request_s", "s", "lower"},
	{"request_tail_s", "s", "lower"},
	{"pins_per_s", "1/s", "higher"},
	{"cpu_per_request_s", "s", "lower"},
	{"alloc_mb_per_request", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the traced run's metrics.  A name ending in _s is the
// median per-request self time of the span of the same name, unless
// the request records it as a value (dist.first_barrier_s,
// dist.barrier_gap_s) or it is derived (exchange.wire_overhead_s).
// Every workload's traced run measures every one of them.
var perLayer = []metricSpec{
	{"input.bytes", "bytes", "lower"},
	{"mmio.read_s", "s", "lower"},
	{"mmio.tohypergraph_s", "s", "lower"},
	{"hypergraph.readtext_s", "s", "lower"},
	{"store.write_s", "s", "lower"},
	{"store.open_s", "s", "lower"},
	{"store.file_bytes", "bytes", "lower"},
	{"core.csr_decompose_s", "s", "lower"},
	{"csr.peel_steps", "count", "lower"},
	{"csr.ns_per_step", "ns", "lower"},
	{"csr.steps_per_bound", "ratio", "lower"},
	{"cover.multicover_s", "s", "lower"},
	{"cover.pops", "count", "lower"},
	{"cover.size", "count", "lower"},
	{"cover.useful_pop_ratio", "ratio", "higher"},
	{"cover.verify_s", "s", "lower"},
	{"stats.components_s", "s", "lower"},
	{"core.sharded_decompose_s", "s", "lower"},
	{"core.sharded_steps", "count", "lower"},
	{"dist.decompose_s", "s", "lower"},
	{"dist.coordinator_steps", "count", "lower"},
	{"dist.barriers", "count", "lower"},
	{"dist.first_barrier_s", "s", "lower"},
	{"dist.barrier_gap_s", "s", "lower"},
	{"exchange.wire_overhead_s", "s", "lower"},
	{"output.render_s", "s", "lower"},
	{"output.bytes", "bytes", "lower"},
	{"request.self_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// config is one invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	setupReps int
	tmpDir    string // store files
	spanDir   string // traced runs' span dumps
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp records where and on what a result was measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dense-peel or proteome-ingest")
	seedText := fs.String("seed", "", "workload seed (default: the workload's historical seed)")
	seconds := fs.Float64("seconds", 20, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	seed := wl.defaultSeed
	if *seedText != "" {
		if seed, err = strconv.ParseUint(*seedText, 0, 64); err != nil {
			fmt.Fprintln(stderr, "perfbench: -seed:", err)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg := config{
		workload:  wl.name,
		seed:      seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		setupReps: setupReps,
		tmpDir:    filepath.Join(".bench_build", "tmp"),
		spanDir:   filepath.Join(".bench_build", "spans"),
	}
	if cfg.trace {
		cfg.setupReps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	res, err := bench(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench sets the workload up, runs the timed loop and returns the
// result, writing the human-readable report to w.
func bench(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	st := stamp{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitCommit(),
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("stamp: %w", err)
	}
	fmt.Fprintf(w, "stamp %s\n", stampLine)

	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating the scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating the scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	cal := newCalibrator()
	var fx *fixture
	var setups, rawSetups []float64
	calPrev := cal.run()
	for i := 0; i < max(1, cfg.setupReps); i++ {
		fx = nil // let settle collect the previous set-up
		settle()
		start := time.Now()
		if fx, err = setUp(ctx, wl, cfg.seed, dir); err != nil {
			return nil, err
		}
		raw := time.Since(start).Seconds()
		var factor float64
		factor, calPrev = cal.scaled(calPrev)
		setups, rawSetups = append(setups, raw*factor), append(rawSetups, raw)
	}
	h := fx.input
	fmt.Fprintf(w, "input |V|=%d |F|=%d |E|=%d bytes=%d\n", h.NumVertices(), h.NumEdges(), h.NumPins(), fx.inputBytes)

	settle()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traced(ctx, cfg, fx, st, w)
	}
	fmt.Fprintf(w, "unscaled set-up median %.6g s\n", median(rawSetups))
	return untraced(ctx, cfg, fx, cal, setups, w)
}

// setUp builds the workload's fixture and warms it up with one checked
// request.
func setUp(ctx context.Context, wl workload, seed uint64, dir string) (*fixture, error) {
	fx, err := wl.setup(ctx, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	o, err := request(ctx, fx.main, nil)
	if err == nil {
		err = compare(fx.main.ref, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s warm-up request: %w", wl.name, err)
	}
	return fx, nil
}

// request runs one request of rt, turning a panic into an error.
func request(ctx context.Context, rt route, tr *tracer) (o *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s request panicked: %v", rt.name, r)
		}
	}()
	return rt.run(ctx, tr)
}

// loop counts attempts and failures and decides when the timed loop
// ends.
type loop struct {
	cfg       config
	start     time.Time
	attempted int
	failed    int
	report    io.Writer
}

func (l *loop) more(round int) bool {
	return round == 0 || time.Since(l.start).Seconds() < l.cfg.seconds
}

// timed runs one request of rt after a garbage collection and checks
// it against rt's reference.  It returns the request's wall time, CPU
// time and heap bytes allocated.  With a tracer, the request is
// recorded as the tracer's next request.
func (l *loop) timed(ctx context.Context, rt route, tr *tracer) (wall, cpu, alloc float64) {
	runtime.GC()
	c0, a0 := cpuSeconds(), heapAllocated()
	tr.beginRequest()
	t0 := time.Now()
	o, err := request(ctx, rt, tr)
	wall = time.Since(t0).Seconds()
	tr.endRequest()
	cpu, alloc = cpuSeconds()-c0, float64(heapAllocated()-a0)
	if err == nil {
		err = compare(rt.ref, o)
	}
	l.attempted++
	if err != nil {
		l.failed++
		if l.failed <= 3 {
			fmt.Fprintf(l.report, "failed request %d: %v\n", l.attempted, err)
		}
	}
	return wall, cpu, alloc
}

func (l *loop) result(metrics map[string]metricValue) *result {
	fmt.Fprintf(l.report, "failed_frac %g (%d of %d requests failed)\n",
		float64(l.failed)/float64(max(1, l.attempted)), l.failed, l.attempted)
	return &result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: metrics}
}

// untraced is the end-to-end run.  Its times are scaled to nominal
// host speed by the calibration kernel run between requests.
func untraced(ctx context.Context, cfg config, fx *fixture, cal *calibrator, setups []float64, w io.Writer) (*result, error) {
	l := &loop{cfg: cfg, start: time.Now(), report: w}
	var walls, cpus, allocs, rawWalls, cals []float64
	total := 0.0
	calPrev := cal.run()
	for round := 0; l.more(round); round++ {
		wall, cpu, alloc := l.timed(ctx, fx.main, nil)
		rawWalls, cals = append(rawWalls, wall), append(cals, calPrev)
		var factor float64
		factor, calPrev = cal.scaled(calPrev)
		wall, cpu = wall*factor, cpu*factor
		walls, cpus, allocs = append(walls, wall), append(cpus, cpu), append(allocs, alloc)
		total += wall
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	tailV, pct, beyond := tail(walls)
	vals := map[string]float64{
		"request_s":            median(walls),
		"request_tail_s":       tailV,
		"pins_per_s":           float64(fx.input.NumPins()) * float64(len(walls)) / total,
		"cpu_per_request_s":    median(cpus),
		"alloc_mb_per_request": median(allocs) / 1e6,
		"peak_rss_mb":          float64(rss) / 1e6,
		"setup_s":              median(setups),
	}
	metrics := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		metrics[m.name] = metricValue{vals[m.name], m.unit}
		fmt.Fprintf(w, "%-22s %.6g %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(w, "request_tail_s is the p%.1f of %d requests (%d beyond it); setup_s is the median of %d set-ups\n",
		pct, len(walls), beyond, len(setups))
	fmt.Fprintf(w, "times are scaled to a calibration kernel time of %g s; unscaled request median %.6g s, kernel median %.6g s\n",
		nominalCalSeconds, median(rawWalls), median(cals))
	return l.result(metrics), nil
}

// traced is the per-layer run.  It alternates an untraced and a traced
// request of the workload's route, so trace.overhead_frac compares
// requests made under the same conditions, and then times each probe,
// traced, on the same input.  A per-layer figure is the median over
// the traced requests of the main route, or, for a layer the main
// route does not pass through, of the first probe that does.
func traced(ctx context.Context, cfg config, fx *fixture, st stamp, w io.Writer) (*result, error) {
	probes, err := fx.probes(ctx)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	l := &loop{cfg: cfg, start: time.Now(), report: w}
	routes := append([]route{fx.main}, probes...)
	tracers := make([]*tracer, len(routes))
	for i := range tracers {
		tracers[i] = newTracer()
	}
	var plain []float64
	walls := make([][]float64, len(routes))
	for round := 0; l.more(round); round++ {
		wall, _, _ := l.timed(ctx, fx.main, nil)
		plain = append(plain, wall)
		for i, rt := range routes {
			wall, _, _ = l.timed(ctx, rt, tracers[i])
			walls[i] = append(walls[i], wall)
		}
	}

	h := fx.input
	dV, d2F := h.MaxVertexDegree(), h.MaxDegree2Edge()
	bound := float64(h.NumPins()) * (float64(d2F) + float64(dV)*math.Log(float64(max(d2F, 1))))
	out := make(map[string]float64, len(perLayer))
	accounted := 0.0
	for i, tr := range tracers {
		perReq := tr.perRequest()
		for _, m := range perReq {
			if steps := m["csr.peel_steps"]; steps > 0 {
				m["csr.ns_per_step"] = m["core.csr_decompose_s"] * 1e9 / steps
				m["csr.steps_per_bound"] = steps / bound
			}
			if pops := m["cover.pops"]; pops > 0 {
				m["cover.useful_pop_ratio"] = m["cover.size"] / pops
			}
			if i > 0 {
				delete(m, "request.self_s") // the main route's only
			}
		}
		for name, xs := range collect(perReq) {
			if _, ok := out[name]; ok {
				continue
			}
			out[name] = median(xs)
			// The main route's self times partition its wall time;
			// their sum is printed beside the traced request's median.
			if i == 0 && strings.HasSuffix(name, "_s") {
				accounted += out[name]
			}
		}
	}
	out["trace.overhead_frac"] = median(walls[0])/median(plain) - 1
	wallOf := make(map[string]float64, len(routes))
	for i, rt := range routes {
		wallOf[rt.name] = median(walls[i])
	}
	out["exchange.wire_overhead_s"] = wallOf["dist"] - wallOf["sharded"]

	metrics := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		metrics[m.name] = metricValue{out[m.name], m.unit}
		fmt.Fprintf(w, "%-26s %.10g %s\n", m.name, out[m.name], m.unit)
	}
	fmt.Fprintf(w, "bound: |E|=%d Δ_V=%d Δ2,F=%d, |E|(Δ2,F + Δ_V ln Δ2,F) = %.6g\n", h.NumPins(), dV, d2F, bound)
	fmt.Fprintf(w, "traced request median %.6g s; the main route's layer self times sum to %.6g s\n", median(walls[0]), accounted)
	if err := dumpSpans(cfg, st, routes, tracers); err != nil {
		return nil, err
	}
	return l.result(metrics), nil
}

// collect gathers per-request samples by metric name.
func collect(perReq []map[string]float64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, m := range perReq {
		for name, v := range m {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// dumpSpans writes the traced run's spans and per-request counts,
// route by route, as JSON.
func dumpSpans(cfg config, st stamp, routes []route, tracers []*tracer) error {
	type routeSpans struct {
		Route  string               `json:"route"`
		Spans  []span               `json:"spans"`
		Counts []map[string]float64 `json:"counts"`
	}
	dump := struct {
		Stamp  stamp        `json:"stamp"`
		Routes []routeSpans `json:"routes"`
	}{Stamp: st}
	for i, rt := range routes {
		dump.Routes = append(dump.Routes, routeSpans{rt.name, tracers[i].spans, tracers[i].counts})
	}
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return fmt.Errorf("creating the span directory: %w", err)
	}
	data, err := json.Marshal(dump)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
