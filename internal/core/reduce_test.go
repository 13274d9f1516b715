// Unit tests for the reduction layer (reduce.go): the incremental
// overlap table and the shared snapshot detector (csr.Detector) must
// both implement the paper's containment rule, agree with each other,
// and agree with the independent detection in
// hypergraph.NonMaximalEdges.  In-package
// so the unexported layer is reachable (internal/check would be an
// import cycle here).
package core

import (
	"testing"

	"hyperplex/internal/csr"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func noCheckpoint(int) {}

// reduceInstances returns a deterministic mix of crafted corner cases
// (duplicates, nesting, a spanning edge) and random hypergraphs.
func reduceInstances(t *testing.T) []*hypergraph.Hypergraph {
	t.Helper()
	crafted := [][][]int32{
		{{0, 1}, {0, 1}, {0, 1, 2}, {3}},          // duplicates + nesting
		{{0, 1, 2, 3, 4}, {1, 2}, {2, 3}, {0, 4}}, // spanning edge over all others
		{{0}, {1}, {2}},                           // disjoint singletons
	}
	var out []*hypergraph.Hypergraph
	for _, edges := range crafted {
		nv := int32(0)
		for _, e := range edges {
			for _, v := range e {
				if v+1 > nv {
					nv = v + 1
				}
			}
		}
		h, err := hypergraph.FromEdgeSets(int(nv), edges)
		if err != nil {
			t.Fatalf("crafted instance: %v", err)
		}
		out = append(out, h)
	}
	rng := xrand.New(0x5ED0CE)
	for i := 0; i < 12; i++ {
		out = append(out, gen.RandomHypergraph(3+rng.Intn(40), 1+rng.Intn(30), 1+rng.Intn(6), rng))
	}
	return out
}

// TestOverlapTableFill checks the freshly built table against the
// merge-based hypergraph.Overlap for every hyperedge pair.
func TestOverlapTableFill(t *testing.T) {
	for i, h := range reduceInstances(t) {
		var tab overlapTable
		tab.Fill(h, noCheckpoint)
		ne := h.NumEdges()
		for f := 0; f < ne; f++ {
			for g := 0; g < ne; g++ {
				if f == g {
					continue
				}
				if got, want := tab.Overlap(f, g), h.Overlap(f, g); got != want {
					t.Fatalf("instance %d %v: Overlap(%d, %d) = %d, want %d", i, h, f, g, got, want)
				}
			}
		}
	}
}

// bruteOverlap counts |f ∩ g| over the alive vertices directly.
func bruteOverlap(h *hypergraph.Hypergraph, vAlive []bool, f, g int) int {
	inF := make(map[int32]bool)
	for _, v := range h.Vertices(f) {
		if vAlive[v] {
			inF[v] = true
		}
	}
	n := 0
	for _, v := range h.Vertices(g) {
		if vAlive[v] && inF[v] {
			n++
		}
	}
	return n
}

// TestOverlapTableIncremental deletes vertices one at a time the way
// the sequential peeler does (ShrinkPairwise on the live incident
// edges, DropEdge on emptied ones) and checks the table against brute
// force after every deletion.
func TestOverlapTableIncremental(t *testing.T) {
	for i, h := range reduceInstances(t) {
		nv, ne := h.NumVertices(), h.NumEdges()
		var tab overlapTable
		tab.Fill(h, noCheckpoint)
		vAlive := make([]bool, nv)
		eAlive := make([]bool, ne)
		eDeg := make([]int, ne)
		for v := range vAlive {
			vAlive[v] = true
		}
		for f := range eAlive {
			eAlive[f] = true
			eDeg[f] = h.EdgeDegree(f)
		}
		rng := xrand.New(uint64(0xD0D0 + i))
		for _, v := range rng.Perm(nv) {
			vAlive[v] = false
			var live []int32
			for _, f := range h.Edges(v) {
				if eAlive[f] {
					live = append(live, f)
					eDeg[f]--
				}
			}
			tab.ShrinkPairwise(live)
			for _, f := range live {
				if eDeg[f] == 0 {
					eAlive[f] = false
					tab.DropEdge(int(f))
				}
			}
			for f := 0; f < ne; f++ {
				if !eAlive[f] {
					continue
				}
				for g := f + 1; g < ne; g++ {
					if !eAlive[g] {
						continue
					}
					want := bruteOverlap(h, vAlive, f, g)
					if got := tab.Overlap(f, g); got != want {
						t.Fatalf("instance %d %v after deleting vertex %d: Overlap(%d, %d) = %d, want %d",
							i, h, v, f, g, got, want)
					}
					if got := tab.Overlap(g, f); got != want {
						t.Fatalf("instance %d %v after deleting vertex %d: Overlap(%d, %d) = %d, want %d (asymmetry)",
							i, h, v, g, f, got, want)
					}
				}
			}
		}
	}
}

// TestNonMaximalDetectorsAgree checks all three detections of the
// containment rule against each other on the all-alive state: the
// incremental table, the shared snapshot detector, and the independent
// hypergraph.NonMaximalEdges.
func TestNonMaximalDetectorsAgree(t *testing.T) {
	for i, h := range reduceInstances(t) {
		ne := h.NumEdges()
		var tab overlapTable
		tab.Fill(h, noCheckpoint)
		det := csr.NewDetector(csr.FromH(h))
		vAlive := make([]bool, h.NumVertices())
		for v := range vAlive {
			vAlive[v] = true
		}
		eDeg := make([]int32, ne)
		for f := range eDeg {
			eDeg[f] = int32(h.EdgeDegree(f))
		}
		want := hypergraph.NonMaximalEdges(h)
		for f := 0; f < ne; f++ {
			if eDeg[f] == 0 {
				continue // empty edges are the callers' business
			}
			if got := tab.NonMaximal(f, eDeg); got != want[f] {
				t.Fatalf("instance %d %v: overlapTable.NonMaximal(%d) = %t, want %t", i, h, f, got, want[f])
			}
			if got := det.NonMaximal(int32(f), vAlive, eDeg); got != want[f] {
				t.Fatalf("instance %d %v: csr.Detector.NonMaximal(%d) = %t, want %t", i, h, f, got, want[f])
			}
		}
	}
}
