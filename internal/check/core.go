package check

import (
	"fmt"

	"hyperplex/internal/core"
	"hyperplex/internal/hypergraph"
)

// ValidCore verifies that r is exactly the k-core of h as defined in
// the paper: structurally consistent, every surviving vertex has alive
// degree ≥ k (≥ 1 for k ≤ 0), every surviving hyperedge is non-empty
// and maximal among survivors, and the surviving sets equal the maximum
// such sub-hypergraph (checked against KCoreOracle).  k must be ≥ 0.
func ValidCore(h *hypergraph.Hypergraph, k int, r *core.Result) error {
	return validCore(h, k, 1, r)
}

// ValidBiCore is ValidCore for the (k, l)-core: surviving hyperedges
// must additionally keep at least l alive vertices.
func ValidBiCore(h *hypergraph.Hypergraph, k, l int, r *core.Result) error {
	return validCore(h, k, l, r)
}

func validCore(h *hypergraph.Hypergraph, k, l int, r *core.Result) error {
	if r == nil {
		return fmt.Errorf("check: nil core result")
	}
	if k < 0 {
		k = 0
	}
	if l < 1 {
		l = 1
	}
	if r.K != k {
		return fmt.Errorf("check: result labeled K=%d, want %d", r.K, k)
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	if len(r.VertexIn) != nv || len(r.EdgeIn) != ne {
		return fmt.Errorf("check: result over %d/%d vertices/edges, hypergraph has %d/%d",
			len(r.VertexIn), len(r.EdgeIn), nv, ne)
	}
	if got := countTrue(r.VertexIn); got != r.NumVertices {
		return fmt.Errorf("check: NumVertices=%d but %d vertices marked in", r.NumVertices, got)
	}
	if got := countTrue(r.EdgeIn); got != r.NumEdges {
		return fmt.Errorf("check: NumEdges=%d but %d edges marked in", r.NumEdges, got)
	}

	// Local invariants, checked on the original hypergraph for sharper
	// error messages than the oracle comparison alone.
	minDeg := k
	if minDeg < 1 {
		minDeg = 1
	}
	for v := 0; v < nv; v++ {
		if !r.VertexIn[v] {
			continue
		}
		d := 0
		for _, f := range h.Edges(v) {
			if r.EdgeIn[f] {
				d++
			}
		}
		if d < minDeg {
			return fmt.Errorf("check: surviving vertex %d has alive degree %d < %d", v, d, minDeg)
		}
	}
	alive := make([][]int32, ne)
	for f := 0; f < ne; f++ {
		if !r.EdgeIn[f] {
			continue
		}
		for _, v := range h.Vertices(f) {
			if r.VertexIn[v] {
				alive[f] = append(alive[f], v)
			}
		}
		if len(alive[f]) < l {
			return fmt.Errorf("check: surviving hyperedge %d keeps %d vertices < %d", f, len(alive[f]), l)
		}
	}
	for f := 0; f < ne; f++ {
		if !r.EdgeIn[f] {
			continue
		}
		if containedInAlive(h, f, alive, r.EdgeIn) {
			return fmt.Errorf("check: surviving hyperedge %d is not maximal among survivors", f)
		}
	}

	// Maximum-ness: the survivors must equal the definitional fixpoint,
	// not merely form a valid sub-hypergraph of it.  The vertex set of a
	// core is unique, but hyperedges that shrink to the SAME induced
	// member set during peeling are interchangeable — which copy survives
	// depends on deletion order — so the edge families are compared as
	// sets of induced member sets, not by hyperedge ID.
	vIn, eIn := coreFixpoint(h, k, l)
	if v, ok := firstMismatch(r.VertexIn, vIn); !ok {
		return fmt.Errorf("check: vertex %d: result says in=%t, oracle says %t (k=%d, l=%d)",
			v, r.VertexIn[v], vIn[v], k, l)
	}
	if err := sameEdgeFamily(h, r.VertexIn, r.EdgeIn, eIn); err != nil {
		return fmt.Errorf("check: result vs oracle (k=%d, l=%d): %w", k, l, err)
	}
	return nil
}

// inducedKey returns a canonical string key for the alive part of
// hyperedge f (member IDs are stored sorted, so the induced subsequence
// is already canonical).
func inducedKey(h *hypergraph.Hypergraph, vIn []bool, f int) string {
	var b []byte
	for _, v := range h.Vertices(f) {
		if vIn[v] {
			b = fmt.Appendf(b, "%d,", v)
		}
	}
	return string(b)
}

// sameEdgeFamily verifies that two edge-membership slices over the SAME
// surviving vertex set describe the same family of induced member sets.
// Both families come from reduced hypergraphs, so induced sets within
// one family are pairwise distinct and a set comparison is exact.
func sameEdgeFamily(h *hypergraph.Hypergraph, vIn, aIn, bIn []bool) error {
	seen := make(map[string]int)
	for f := range bIn {
		if bIn[f] {
			seen[inducedKey(h, vIn, f)] = f
		}
	}
	na := 0
	for f := range aIn {
		if !aIn[f] {
			continue
		}
		na++
		key := inducedKey(h, vIn, f)
		if _, ok := seen[key]; !ok {
			return fmt.Errorf("surviving hyperedge %d (induced set {%s}) has no counterpart", f, key)
		}
		delete(seen, key)
	}
	for key, f := range seen {
		return fmt.Errorf("hyperedge %d (induced set {%s}) survives only in the second family (%d vs %d edges)",
			f, key, na, na+len(seen))
	}
	return nil
}

// ValidDecomposition verifies a full core decomposition: coreness
// arrays sized to h, MaxK attained, and every level's extracted core
// equal to the definitional fixpoint (including level 0, the reduced
// hypergraph, and level MaxK+1, which must be empty).
func ValidDecomposition(h *hypergraph.Hypergraph, d *core.Decomposition) error {
	if d == nil {
		return fmt.Errorf("check: nil decomposition")
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	if len(d.VertexCoreness) != nv || len(d.EdgeCoreness) != ne {
		return fmt.Errorf("check: decomposition over %d/%d vertices/edges, hypergraph has %d/%d",
			len(d.VertexCoreness), len(d.EdgeCoreness), nv, ne)
	}
	maxV := 0
	for v, c := range d.VertexCoreness {
		if c < 0 {
			return fmt.Errorf("check: vertex %d has negative coreness %d", v, c)
		}
		if c > maxV {
			maxV = c
		}
	}
	if maxV != d.MaxK {
		return fmt.Errorf("check: MaxK=%d but maximum vertex coreness is %d", d.MaxK, maxV)
	}
	for f, c := range d.EdgeCoreness {
		if c < 0 || c > d.MaxK {
			return fmt.Errorf("check: hyperedge %d coreness %d outside [0, MaxK=%d]", f, c, d.MaxK)
		}
	}
	for k := 0; k <= d.MaxK+1; k++ {
		r := d.Core(k)
		vIn, eIn := KCoreOracle(h, k)
		if v, ok := firstMismatch(r.VertexIn, vIn); !ok {
			return fmt.Errorf("check: level %d: vertex %d coreness disagrees with oracle (in=%t, oracle %t)",
				k, v, r.VertexIn[v], vIn[v])
		}
		if err := sameEdgeFamily(h, r.VertexIn, r.EdgeIn, eIn); err != nil {
			return fmt.Errorf("check: level %d vs oracle: %w", k, err)
		}
	}
	return nil
}

// SameResult reports the first point of disagreement between two core
// results of h, for differential tests comparing two fast
// implementations directly.  Vertex membership and counts must match
// exactly; edge families are compared as sets of induced member sets,
// since hyperedges that shrink to the same induced set during peeling
// are interchangeable and the surviving copy is deletion-order
// dependent.
func SameResult(h *hypergraph.Hypergraph, a, b *core.Result) error {
	if len(a.VertexIn) != len(b.VertexIn) || len(a.EdgeIn) != len(b.EdgeIn) {
		return fmt.Errorf("check: results differ in shape: %d/%d vs %d/%d",
			len(a.VertexIn), len(a.EdgeIn), len(b.VertexIn), len(b.EdgeIn))
	}
	if v, ok := firstMismatch(a.VertexIn, b.VertexIn); !ok {
		return fmt.Errorf("check: results disagree on vertex %d: %t vs %t", v, a.VertexIn[v], b.VertexIn[v])
	}
	if err := sameEdgeFamily(h, a.VertexIn, a.EdgeIn, b.EdgeIn); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if a.NumVertices != b.NumVertices || a.NumEdges != b.NumEdges {
		return fmt.Errorf("check: results disagree on counts: %d/%d vs %d/%d",
			a.NumVertices, a.NumEdges, b.NumVertices, b.NumEdges)
	}
	return nil
}

func countTrue(b []bool) int {
	n := 0
	for _, x := range b {
		if x {
			n++
		}
	}
	return n
}

// firstMismatch returns (index, false) for the first position where the
// slices differ, or (0, true) when they agree everywhere.
func firstMismatch(a, b []bool) (int, bool) {
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}
