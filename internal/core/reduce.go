package core

import (
	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// This file is the package's reduction layer: the paper's
// overlap-count machinery for detecting non-maximal hyperedges (a
// hyperedge f is contained in g exactly when |f ∩ g| = d(f)).  The
// rule has two implementations in production, each matched to how its
// engines delete:
//
//   - overlapTable maintains the pairwise overlap counts incrementally
//     while vertices and hyperedges are deleted — the data structure of
//     the map-based sequential peeler (hypercore.go, bicore.go), where
//     each deletion updates the table in place.  It is backed by the
//     flat-array csr.Overlaps (offset/neighbor/count int32 rows);
//   - csr.Detector re-derives the answer for one hyperedge against an
//     alive snapshot — flat vAlive and eDeg arrays, dead hyperedges at
//     eDeg == 0 — by intersecting the vertex rows of f's rarest members
//     and probing the few surviving candidates member by member.  It is
//     the kernel layer's one detector: the CSR peeler and the sharded
//     peel's replica (distshard.go, in process and distributed) both
//     call it, each worker with its own fork of the stamp scratch.
//
// Both apply the shared tie-break for equal hyperedges: of two alive
// hyperedges with identical member sets, the lower-ID copy is the
// maximal one.

// overlapTable maintains ov(f, g) = |f ∩ g| over the currently alive
// vertices, for every pair of initially overlapping hyperedges.  (The
// paper uses balanced trees for these sets; the flat sorted rows of
// csr.Overlaps give the same amortized behaviour with binary searches
// instead of pointer chasing.)  Overlap, NonMaximal, DropEdge and
// ShrinkPairwise are promoted from the embedded table.
type overlapTable struct {
	csr.Overlaps
}

// Fill builds the table for h with every vertex and hyperedge alive,
// in O(Σ_v d(v)²) time.  checkpoint is called with an operation count
// at bounded intervals so the caller can honor cancellation and
// budgets; pass a no-op when the construction is not cancellable.
func (t *overlapTable) Fill(h *hypergraph.Hypergraph, checkpoint func(n int)) {
	t.Build(csr.FromH(h), checkpoint)
}
