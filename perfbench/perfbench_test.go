package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// quick is a one-round configuration of workload name: with no
// seconds to run, the timed loop makes exactly one round.
func quick(t *testing.T, name string, seed uint64, trace bool) config {
	t.Helper()
	return config{
		workload: name, seed: seed, trace: trace,
		setupReps: 1, tmpDir: t.TempDir(), spanDir: t.TempDir(),
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	v, pct, beyond := tail(xs)
	if v != 30 || pct != 75 || beyond != 10 {
		t.Errorf("tail of 1..40 = %v at p%v with %d beyond, want 30 at p75 with 10", v, pct, beyond)
	}
	if v, _, beyond := tail(xs[:10]); v != 40 || beyond != 0 {
		t.Errorf("tail of ten samples = %v with %d beyond, want the maximum 40 with 0", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCorruptedResultCountsAsFailure feeds one corrupted outcome into
// the timed loop and checks that it is counted as a failed request,
// and that every field the checks compare catches a corruption.
func TestCorruptedResultCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	wl, err := findWorkload("dense-peel")
	if err != nil {
		t.Fatal(err)
	}
	fx, err := setUp(ctx, wl, fdpm37Seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	probes, err := fx.probes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(probes, func(rt route) bool { return rt.name == "dist" })
	if i < 0 {
		t.Fatal("dense-peel has no dist probe")
	}
	rt := probes[i] // its reference has every field the checks use but the cover's
	good, err := request(ctx, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(o *outcome){
		"maxK":       func(o *outcome) { o.maxK++ },
		"profile":    func(o *outcome) { o.profile = slices.Clone(o.profile); o.profile[0].Edges-- },
		"coreness":   func(o *outcome) { o.coreness = slices.Clone(o.coreness); o.coreness[7]++ },
		"cover":      func(o *outcome) { o.coverWeight++ },
		"components": func(o *outcome) { o.components++ },
		"barriers":   func(o *outcome) { o.barriers = 0 }, // what a silent fallback would report
	}
	for name, corrupt := range corruptions {
		bad := *good
		corrupt(&bad)
		if compare(rt.ref, &bad) == nil {
			t.Errorf("corrupted %s passes the check", name)
		}
	}

	calls := 0
	honest := fx.main.run
	fx.main.run = func(ctx context.Context, tr *tracer) (*outcome, error) {
		o, err := honest(ctx, tr)
		if calls++; calls == 2 && err == nil {
			o.coreness = slices.Clone(o.coreness)
			o.coreness[0]++
		}
		return o, err
	}
	l := &loop{report: io.Discard}
	for range 3 {
		l.timed(ctx, fx.main, nil)
	}
	res := l.result(nil)
	if res.Attempted != 3 || res.Failed != 1 || res.Correct {
		t.Errorf("attempted %d failed %d correct %t, want 3, 1, false", res.Attempted, res.Failed, res.Correct)
	}
}

// TestCountsRepeat runs the traced benchmark twice on one seed per
// workload; every count metric must repeat exactly, and no per-layer
// metric may be 0, which would read as a layer left unmeasured.
func TestCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				res, err := bench(context.Background(), quick(t, wl.name, wl.defaultSeed, true), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("%d of %d requests failed", res.Failed, res.Attempted)
				}
				runs[i] = res
			}
			for _, m := range perLayer {
				a, b := runs[0].Metrics[m.name].Value, runs[1].Metrics[m.name].Value
				if a == 0 || b == 0 {
					t.Errorf("%s: %v then %v, not measured", m.name, a, b)
				}
				if (m.unit == "count" || m.unit == "bytes") && a != b {
					t.Errorf("%s: %v then %v", m.name, a, b)
				}
			}
		})
	}
}

// TestSecondSeed checks that another seed changes every workload's
// input and that its requests still pass their checks.
func TestSecondSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			ctx := context.Background()
			seed := wl.defaultSeed + 1
			a, err := wl.setup(ctx, wl.defaultSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := wl.setup(ctx, seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if pinsDigest(a) == pinsDigest(b) {
				t.Errorf("seeds %d and %d give the same input", wl.defaultSeed, seed)
			}
			res, err := bench(ctx, quick(t, wl.name, seed, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("seed %d: %d of %d requests failed", seed, res.Failed, res.Attempted)
			}
		})
	}
}

// pinsDigest hashes the input's membership lists.
func pinsDigest(fx *fixture) uint64 {
	h := fx.input
	x := uint64(14695981039346656037)
	for f := 0; f < h.NumEdges(); f++ {
		for _, v := range h.Vertices(f) {
			x = (x ^ uint64(v)) * 1099511628211
		}
		x = (x ^ 0xff) * 1099511628211
	}
	return x
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i] != (spec{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
