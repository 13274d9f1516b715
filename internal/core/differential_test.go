// Differential tests validating the fast core implementations against
// the naive oracles and invariant checkers in internal/check, over a
// deterministic generator sweep plus the Cellzome dataset.  This file
// is an external test package because check imports core.
package core_test

import (
	"runtime"
	"testing"
	"time"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
)

// TestDifferentialKCore checks KCore against both the in-package naive
// implementation and check's independent fixpoint oracle on every sweep
// instance, then on the Cellzome hypergraph.
func TestDifferentialKCore(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E1) {
		for _, k := range []int{0, 1, 2, 3} {
			r := core.KCore(h, k)
			if err := check.ValidCore(h, k, r); err != nil {
				t.Fatalf("instance %d %v, k=%d: %v", i, h, k, err)
			}
			if err := check.SameResult(h, r, core.KCoreNaive(h, k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: KCore vs KCoreNaive: %v", i, h, k, err)
			}
		}
	}
	h := dataset.Cellzome().H
	for _, k := range []int{1, 6, 7} {
		r := core.KCore(h, k)
		if err := check.ValidCore(h, k, r); err != nil {
			t.Fatalf("Cellzome k=%d: %v", k, err)
		}
	}
	if r6 := core.KCore(h, 6); r6.NumVertices != 41 || r6.NumEdges != 54 {
		t.Fatalf("Cellzome 6-core is %d/%d, want the paper's 41/54", r6.NumVertices, r6.NumEdges)
	}
}

// TestDifferentialKCoreParallel pins the parallel k-core — the sharded
// peel stopped at level k (ShardedKCore) — against KCore and KCoreNaive for every k from 0 to MaxK+1, over the
// sweep instances and several shard and worker counts (run under -race
// in CI), plus the invariant checker; no worker goroutine may outlive
// the calls.
func TestDifferentialKCoreParallel(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	opts := []core.ShardedOptions{{Shards: 1, Workers: 1}, {Shards: 3, Workers: 2}, {Shards: 4, Workers: runtime.NumCPU()}}
	for i, h := range check.Instances(58, 0xC04E2) {
		maxK := core.Decompose(h).MaxK
		for k := 0; k <= maxK+1; k++ {
			want := core.KCore(h, k)
			if err := check.SameResult(h, want, core.KCoreNaive(h, k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: KCore vs KCoreNaive: %v", i, h, k, err)
			}
			for _, o := range opts {
				got := core.ShardedKCore(h, k, o)
				if err := check.SameResult(h, got, want); err != nil {
					t.Fatalf("instance %d %v, k=%d, %+v: sharded vs sequential: %v", i, h, k, o, err)
				}
			}
			if err := check.ValidCore(h, k, core.ShardedKCore(h, k, opts[1])); err != nil {
				t.Fatalf("instance %d %v, k=%d: %v", i, h, k, err)
			}
		}
	}
	h := dataset.Cellzome().H
	want := core.KCore(h, 6)
	for _, o := range opts {
		if err := check.SameResult(h, core.ShardedKCore(h, 6, o), want); err != nil {
			t.Fatalf("Cellzome k=6, %+v: %v", o, err)
		}
	}
}

// TestDifferentialShardedDecompose points the differential driver at
// the sharded engine: for shard counts {1, 2, 3, NumCPU} and a count
// larger than the vertex count (exercising the clamp), the vertex
// coreness vector and MaxK must equal Decompose exactly, and every
// core level must contain the same hyperedge family (the surviving
// copy of equal-set hyperedges is peeling-order dependent, so levels
// are compared as member-set families via SameResult, the same
// convention as the parallel peeler).  Each instance's sharded
// decomposition is also validated level by level against the
// independent fixpoint oracle, and no worker goroutine may outlive the
// calls.
func TestDifferentialShardedDecompose(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	for i, h := range check.Instances(58, 0xC04E5) {
		want := core.Decompose(h)
		shardCounts := []int{1, 2, 3, runtime.NumCPU(), h.NumVertices() + 13}
		for _, shards := range shardCounts {
			got := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
			if got.MaxK != want.MaxK {
				t.Fatalf("instance %d %v, shards=%d: MaxK = %d, want %d", i, h, shards, got.MaxK, want.MaxK)
			}
			for v, c := range want.VertexCoreness {
				if got.VertexCoreness[v] != c {
					t.Fatalf("instance %d %v, shards=%d: vertex %d coreness %d, want %d",
						i, h, shards, v, got.VertexCoreness[v], c)
				}
			}
			for k := 1; k <= want.MaxK; k++ {
				if err := check.SameResult(h, got.Core(k), want.Core(k)); err != nil {
					t.Fatalf("instance %d %v, shards=%d, k=%d: sharded vs sequential: %v", i, h, shards, k, err)
				}
			}
		}
		got := core.ShardedDecompose(h, core.ShardedOptions{Shards: 3})
		if err := check.ValidDecomposition(h, got); err != nil {
			t.Fatalf("instance %d %v, shards=3: %v", i, h, err)
		}
	}
	h := dataset.Cellzome().H
	want := core.Decompose(h)
	for _, shards := range []int{1, 2, 3, runtime.NumCPU(), h.NumVertices() + 13} {
		got := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
		if got.MaxK != 6 {
			t.Fatalf("Cellzome shards=%d: MaxK = %d, want 6", shards, got.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if got.VertexCoreness[v] != c {
				t.Fatalf("Cellzome shards=%d: vertex %d coreness %d, want %d", shards, v, got.VertexCoreness[v], c)
			}
		}
		r6 := got.Core(6)
		if err := check.SameResult(h, r6, want.Core(6)); err != nil {
			t.Fatalf("Cellzome shards=%d, 6-core: %v", shards, err)
		}
		if err := check.ValidCore(h, 6, r6); err != nil {
			t.Fatalf("Cellzome shards=%d: %v", shards, err)
		}
		if r6.NumVertices != 41 || r6.NumEdges != 54 {
			t.Fatalf("Cellzome shards=%d: 6-core is %d/%d, want the paper's 41/54", shards, r6.NumVertices, r6.NumEdges)
		}
	}
}

// TestDifferentialCSRDecompose pins the flat-array bucket-queue kernel
// (internal/csr, reached through core.CSRDecompose) to both the
// level-by-level map-based Decompose and the sharded engine, with the
// same protocol as the sharded differential: exact vertex coreness and
// MaxK, per-level hyperedge member-set families via SameResult (the
// surviving copy of equal-set hyperedges is deletion-order dependent),
// the independent fixpoint oracle, and the Cellzome golden numbers.
// No goroutine may outlive the calls — the CSR kernel is sequential,
// so a leak here would mean the sharded comparator leaked.
func TestDifferentialCSRDecompose(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	for i, h := range check.Instances(58, 0xC04E6) {
		want := core.Decompose(h)
		got := core.CSRDecompose(h)
		if got.MaxK != want.MaxK {
			t.Fatalf("instance %d %v: CSR MaxK = %d, want %d", i, h, got.MaxK, want.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if got.VertexCoreness[v] != c {
				t.Fatalf("instance %d %v: CSR vertex %d coreness %d, want %d",
					i, h, v, got.VertexCoreness[v], c)
			}
		}
		for k := 1; k <= want.MaxK; k++ {
			if err := check.SameResult(h, got.Core(k), want.Core(k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: CSR vs sequential: %v", i, h, k, err)
			}
		}
		if err := check.ValidDecomposition(h, got); err != nil {
			t.Fatalf("instance %d %v: CSR decomposition: %v", i, h, err)
		}
		sharded := core.ShardedDecompose(h, core.ShardedOptions{Shards: 3})
		if sharded.MaxK != got.MaxK {
			t.Fatalf("instance %d %v: sharded MaxK %d vs CSR %d", i, h, sharded.MaxK, got.MaxK)
		}
		for k := 1; k <= got.MaxK; k++ {
			if err := check.SameResult(h, sharded.Core(k), got.Core(k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: sharded vs CSR: %v", i, h, k, err)
			}
		}
	}
	h := dataset.Cellzome().H
	want := core.Decompose(h)
	got := core.CSRDecompose(h)
	if got.MaxK != 6 {
		t.Fatalf("Cellzome CSR MaxK = %d, want 6", got.MaxK)
	}
	for v, c := range want.VertexCoreness {
		if got.VertexCoreness[v] != c {
			t.Fatalf("Cellzome: CSR vertex %d coreness %d, want %d", v, got.VertexCoreness[v], c)
		}
	}
	r6 := got.Core(6)
	if err := check.SameResult(h, r6, want.Core(6)); err != nil {
		t.Fatalf("Cellzome 6-core: CSR vs sequential: %v", err)
	}
	if err := check.ValidCore(h, 6, r6); err != nil {
		t.Fatalf("Cellzome CSR 6-core: %v", err)
	}
	if r6.NumVertices != 41 || r6.NumEdges != 54 {
		t.Fatalf("Cellzome CSR 6-core is %d/%d, want the paper's 41/54", r6.NumVertices, r6.NumEdges)
	}
}

// TestDecompositionCoreZero pins Decomposition.Core(0) — and Core of
// a negative k — to the definitional 0-core for the map, CSR and
// sharded decompositions: the reduced hypergraph without isolated
// vertices, checked with check.ValidCore and against KCore(h, 0).
// The sweep's crafted instances include hypergraphs whose 1-core is
// empty (MaxK 0), where MaxCore must return that same 0-core.
func TestDecompositionCoreZero(t *testing.T) {
	instances := append(check.Instances(58, 0xC04E7), dataset.Cellzome().H)
	for i, h := range instances {
		want := core.KCore(h, 0)
		for name, d := range map[string]*core.Decomposition{
			"map":     core.Decompose(h),
			"csr":     core.CSRDecompose(h),
			"sharded": core.ShardedDecompose(h, core.ShardedOptions{Shards: 3}),
		} {
			for _, k := range []int{0, -1} {
				r := d.Core(k)
				if err := check.ValidCore(h, 0, r); err != nil {
					t.Fatalf("instance %d %v: %s Core(%d): %v", i, h, name, k, err)
				}
				if err := check.SameResult(h, r, want); err != nil {
					t.Fatalf("instance %d %v: %s Core(%d) vs KCore(h, 0): %v", i, h, name, k, err)
				}
			}
		}
		if m := core.MaxCore(h); m.K == 0 {
			if err := check.SameResult(h, m, want); err != nil {
				t.Fatalf("instance %d %v: MaxCore at level 0 vs KCore(h, 0): %v", i, h, err)
			}
		}
	}
}

// TestDifferentialBiCore checks the (k, l)-core peeler against the
// definitional fixpoint oracle.
func TestDifferentialBiCore(t *testing.T) {
	pairs := [][2]int{{0, 2}, {1, 2}, {2, 2}, {1, 3}, {3, 1}, {2, 4}}
	for i, h := range check.Instances(58, 0xC04E3) {
		for _, kl := range pairs {
			r := core.BiCore(h, kl[0], kl[1])
			if err := check.ValidBiCore(h, kl[0], kl[1], r); err != nil {
				t.Fatalf("instance %d %v, k=%d, l=%d: %v", i, h, kl[0], kl[1], err)
			}
		}
	}
	h := dataset.Cellzome().H
	r := core.BiCore(h, 2, 3)
	if err := check.ValidBiCore(h, 2, 3, r); err != nil {
		t.Fatalf("Cellzome (2,3)-core: %v", err)
	}
}

// TestDifferentialDecompose validates the full decomposition level by
// level against the oracle on the sweep, and spot-checks the Cellzome
// maximum core against the paper's numbers.
func TestDifferentialDecompose(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E4) {
		d := core.Decompose(h)
		if err := check.ValidDecomposition(h, d); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
	}
	h := dataset.Cellzome().H
	d := core.Decompose(h)
	if d.MaxK != 6 {
		t.Fatalf("Cellzome MaxK = %d, want 6", d.MaxK)
	}
	r := d.Core(6)
	if err := check.ValidCore(h, 6, r); err != nil {
		t.Fatalf("Cellzome decomposition 6-core: %v", err)
	}
}
