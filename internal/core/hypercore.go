package core

import (
	"context"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// Result describes a k-core of a hypergraph as membership slices over
// the ORIGINAL vertex and hyperedge IDs.
type Result struct {
	// K is the threshold this core was computed for.
	K int
	// VertexIn[v] reports whether vertex v survives in the k-core.
	VertexIn []bool
	// EdgeIn[f] reports whether hyperedge f survives in the k-core.
	EdgeIn []bool
	// NumVertices and NumEdges count the survivors.
	NumVertices int
	NumEdges    int
}

// Sub materializes the core as a sub-hypergraph of h (with old→new ID
// maps), for callers that want to keep analyzing it.
func (r *Result) Sub(h *hypergraph.Hypergraph) (*hypergraph.Hypergraph, map[int]int, map[int]int) {
	return h.Sub(r.VertexIn, r.EdgeIn)
}

// Decomposition is the full core decomposition of a hypergraph.
type Decomposition struct {
	// VertexCoreness[v] is the largest k such that v is in the k-core
	// (0 if v is not even in the 1-core).
	VertexCoreness []int
	// EdgeCoreness[f] is the largest k such that hyperedge f is in the
	// k-core (0 if f does not survive reduction of the 1-core).
	EdgeCoreness []int
	// MaxK is the maximum k with a non-empty k-core.
	MaxK int
}

// Core extracts the k-core recorded in the decomposition.  It is
// total: for k ≤ 0 it returns the 0-core, labelled K = 0 — the reduced
// hypergraph without isolated vertices, which is what KCore(h, 0)
// computes.  That core has the 1-core's members, since non-maximal and
// empty hyperedges and isolated vertices all have coreness 0.
func (d *Decomposition) Core(k int) *Result {
	k = max(k, 0)
	r := &Result{
		K:        k,
		VertexIn: make([]bool, len(d.VertexCoreness)),
		EdgeIn:   make([]bool, len(d.EdgeCoreness)),
	}
	minCore := max(k, 1)
	for v, c := range d.VertexCoreness {
		if c >= minCore {
			r.VertexIn[v] = true
			r.NumVertices++
		}
	}
	for f, c := range d.EdgeCoreness {
		if c >= minCore {
			r.EdgeIn[f] = true
			r.NumEdges++
		}
	}
	return r
}

// CoreLevel is one row of a core-decomposition profile: the size of
// the k-core at each level.
type CoreLevel struct {
	K        int
	Vertices int
	Edges    int
}

// Profile returns the k-core sizes for k = 1..MaxK (the number of
// vertices and hyperedges with coreness ≥ k) — the data behind "core
// hierarchy" plots.
func (d *Decomposition) Profile() []CoreLevel {
	levels := make([]CoreLevel, d.MaxK)
	for i := range levels {
		levels[i].K = i + 1
	}
	for _, c := range d.VertexCoreness {
		for k := 1; k <= c && k <= d.MaxK; k++ {
			levels[k-1].Vertices++
		}
	}
	for _, c := range d.EdgeCoreness {
		for k := 1; k <= c && k <= d.MaxK; k++ {
			levels[k-1].Edges++
		}
	}
	return levels
}

// peeler holds the mutable peeling state of the paper's algorithm
// (Fig. 4): per-vertex and per-hyperedge current degrees, and the
// pairwise overlap counts used to detect non-maximal hyperedges
// without comparing membership lists.
type peeler struct {
	h *hypergraph.Hypergraph
	k int
	//hyperplexvet:ignore ctxfirst scoped to one KCoreCtx call; threading ctx through every cascade helper would bloat the hot path
	ctx    context.Context
	meter  *run.Meter
	ops    int // operations since the last checkpoint
	vAlive []bool
	eAlive []bool
	vDeg   []int32
	eDeg   []int32
	// ov is the reduction layer's incremental overlap table (reduce.go):
	// ov[f][g] = |f ∩ g| among alive vertices, maintained across vertex
	// and hyperedge deletions to detect non-maximal hyperedges.
	ov overlapTable

	queue   []int32
	inQueue []bool

	// minEdgeSize is the l of a (k, l)-core: hyperedges shrinking
	// below it are deleted.  The plain k-core uses 1 (only empty
	// hyperedges die for size reasons).
	minEdgeSize int

	vCore, eCore   []int
	aliveV, aliveE int
}

// fpPeelStep fires at the sequential peeler's checkpoints (overlap
// construction and the deletion cascade).
var fpPeelStep = failpoint.Register("core.peel.step")

// peelCheckEvery is the number of elementary peel operations between
// cancellation/budget checkpoints — small enough that even the crafted
// sweep instances cross one, cheap enough to vanish in benchmarks.
const peelCheckEvery = 64

// peelAbort unwinds the deletion cascade when a checkpoint trips; it
// is recovered at the Ctx API boundary and never escapes the package.
type peelAbort struct{ err error }

// checkpoint charges n elementary operations and aborts the peel via
// panic when the context is cancelled, the budget is exhausted, or an
// armed failpoint fires.
func (p *peeler) checkpoint(n int) {
	p.ops += n
	if p.ops < peelCheckEvery {
		return
	}
	charge := int64(p.ops)
	p.ops = 0
	if err := failpoint.Inject(fpPeelStep); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the cascade and is recovered at the Ctx API boundary
		panic(peelAbort{err})
	}
	if err := run.Tick(p.ctx, p.meter, charge); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the cascade and is recovered at the Ctx API boundary
		panic(peelAbort{err})
	}
}

// newPeeler builds the initial state and performs the initial
// reduction (delete hyperedges contained in another, keeping the
// lowest-ID copy of duplicates, plus empty hyperedges), since every
// core of H — including the 0-core — must be a reduced hypergraph.
func newPeeler(ctx context.Context, h *hypergraph.Hypergraph) *peeler {
	// Entry checkpoint: an already-cancelled context aborts before any
	// work, even on inputs too small to reach a periodic checkpoint.
	if err := run.Tick(ctx, run.MeterFrom(ctx), 0); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the cascade and is recovered at the Ctx API boundary
		panic(peelAbort{err})
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	p := &peeler{
		h:       h,
		ctx:     ctx,
		meter:   run.MeterFrom(ctx),
		vAlive:  make([]bool, nv),
		eAlive:  make([]bool, ne),
		vDeg:    make([]int32, nv),
		eDeg:    make([]int32, ne),
		inQueue: make([]bool, nv),
		vCore:   make([]int, nv),
		eCore:   make([]int, ne),
		aliveV:  nv,
		aliveE:  ne,

		minEdgeSize: 1,
	}
	for v := 0; v < nv; v++ {
		p.vAlive[v] = true
		p.vDeg[v] = int32(h.VertexDegree(v))
	}
	for f := 0; f < ne; f++ {
		p.eAlive[f] = true
		p.eDeg[f] = int32(h.EdgeDegree(f))
	}
	p.ov.Fill(h, p.checkpoint)
	// Initial reduction.  Collect first, then delete, so that the
	// containment tests all see the original overlap table.
	var drop []int
	for f := 0; f < ne; f++ {
		p.checkpoint(1)
		if p.eDeg[f] == 0 || p.ov.NonMaximal(f, p.eDeg) {
			drop = append(drop, f)
		}
	}
	for _, f := range drop {
		p.deleteEdge(f)
	}
	return p
}

// deleteEdge removes alive hyperedge f: its alive members lose one
// degree (and are queued if they drop below k), and f disappears from
// the overlap sets of its neighbors.  Deleting an edge can never make
// another edge non-maximal, so no containment re-checks are needed.
func (p *peeler) deleteEdge(f int) {
	p.checkpoint(1)
	p.eAlive[f] = false
	p.eCore[f] = p.k - 1
	if p.eCore[f] < 0 {
		p.eCore[f] = 0
	}
	p.aliveE--
	for _, w := range p.h.Vertices(f) {
		if !p.vAlive[w] {
			continue
		}
		p.vDeg[w]--
		if p.vDeg[w] < int32(p.k) && !p.inQueue[w] {
			p.inQueue[w] = true
			p.queue = append(p.queue, w)
		}
	}
	p.ov.DropEdge(f)
}

// deleteVertex removes alive vertex v.  Phase one removes v from every
// alive hyperedge containing it and updates the pairwise overlaps of
// those hyperedges; phase two then re-checks each shrunk hyperedge for
// emptiness or non-maximality.  The two phases keep the overlap table
// consistent while several hyperedges shrink at once.
func (p *peeler) deleteVertex(v int) {
	p.checkpoint(1)
	p.vAlive[v] = false
	p.vCore[v] = p.k - 1
	if p.vCore[v] < 0 {
		p.vCore[v] = 0
	}
	p.aliveV--

	adj := p.h.Edges(v)
	live := make([]int32, 0, len(adj))
	for _, f := range adj {
		if p.eAlive[f] {
			live = append(live, f)
		}
	}
	// Phase 1: degrees and overlaps.
	for _, f := range live {
		p.eDeg[f]--
	}
	p.ov.ShrinkPairwise(live)
	// Phase 2: a shrunk hyperedge dies when it falls below the minimum
	// size (empty, for the plain k-core) or stops being maximal.
	for _, f := range live {
		p.checkpoint(1)
		if !p.eAlive[f] {
			continue
		}
		if p.eDeg[f] < int32(p.minEdgeSize) || p.ov.NonMaximal(int(f), p.eDeg) {
			p.deleteEdge(int(f))
		}
	}
}

// peelTo raises the threshold to k and drains the queue: every alive
// vertex of degree < k is deleted, cascading hyperedge deletions and
// further vertex deletions until the fixpoint.
func (p *peeler) peelTo(k int) {
	p.k = k
	for v := 0; v < len(p.vAlive); v++ {
		if p.vAlive[v] && p.vDeg[v] < int32(k) && !p.inQueue[v] {
			p.inQueue[v] = true
			p.queue = append(p.queue, int32(v))
		}
	}
	for len(p.queue) > 0 {
		v := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.inQueue[v] = false
		if p.vAlive[v] {
			p.deleteVertex(int(v))
		}
	}
}

// result snapshots the current alive sets.
func (p *peeler) result(k int) *Result {
	r := &Result{
		K:           k,
		VertexIn:    append([]bool(nil), p.vAlive...),
		EdgeIn:      append([]bool(nil), p.eAlive...),
		NumVertices: p.aliveV,
		NumEdges:    p.aliveE,
	}
	return r
}

// KCore computes the k-core of h with the paper's overlap-count
// algorithm and returns the surviving membership.  k must be ≥ 0; the
// 0-core is the reduced hypergraph with isolated vertices removed.
func KCore(h *hypergraph.Hypergraph, k int) *Result {
	r, err := KCoreCtx(context.Background(), h, k)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return r
}

// KCoreCtx is KCore honoring cancellation, deadline and any run.Budget
// attached to ctx (see run.WithBudget), checked every bounded number of
// peel operations.  On cancellation or budget exhaustion it returns
// (nil, err): a partially peeled state is not a valid core of any k, so
// no partial result is exposed.
func KCoreCtx(ctx context.Context, h *hypergraph.Hypergraph, k int) (r *Result, err error) {
	defer recoverPeelAbort(&err)
	p := newPeeler(ctx, h)
	if k < 1 {
		// Even the 0-core drops vertices in no hyperedge.
		p.peelTo(1)
		// peelTo(1) removes degree-0 vertices *and* degree-<1, which is
		// the same set; but it also removes vertices of degree 0 only.
		// For k = 0 we must keep vertices of degree ≥ 1, which peelTo(1)
		// preserves, so this is exactly the reduced hypergraph.
		return p.result(0), nil
	}
	p.peelTo(k)
	return p.result(k), nil
}

// recoverPeelAbort converts a checkpoint abort into the returned
// error, leaving any other panic untouched.
func recoverPeelAbort(err *error) {
	if x := recover(); x != nil {
		a, ok := x.(peelAbort)
		if !ok {
			panic(x)
		}
		*err = a.err
	}
}

// Decompose computes the full core decomposition by raising the peeling
// threshold one level at a time, re-using all peeling state (each
// vertex is still deleted from each hyperedge at most once across the
// whole run, so the total work matches a single maximum-core
// computation).
func Decompose(h *hypergraph.Hypergraph) *Decomposition {
	d, err := DecomposeCtx(context.Background(), h)
	if err != nil {
		panic(err) // only reachable through an armed failpoint
	}
	return d
}

// DecomposeCtx is Decompose honoring cancellation, deadline and any
// run.Budget attached to ctx, checked every bounded number of peel
// operations.  On cancellation or budget exhaustion it returns
// (nil, err).
func DecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph) (d *Decomposition, err error) {
	defer recoverPeelAbort(&err)
	p := newPeeler(ctx, h)
	maxK := 0
	for k := 1; p.aliveV > 0; k++ {
		// The (k-1)-core was non-empty; remember it before peeling on.
		maxK = k - 1
		p.peelTo(k)
		if p.aliveV > 0 {
			maxK = k
		}
	}
	return &Decomposition{
		VertexCoreness: p.vCore,
		EdgeCoreness:   p.eCore,
		MaxK:           maxK,
	}, nil
}

// MaxCore returns the maximum core of h: the largest k with a
// non-empty k-core, and that core's membership.  When even the 1-core
// is empty it returns the (equally empty) 0-core.
func MaxCore(h *hypergraph.Hypergraph) *Result {
	r, err := MaxCoreCtx(context.Background(), h)
	if err != nil {
		panic(err) // only reachable through an armed failpoint
	}
	return r
}

// MaxCoreCtx is MaxCore honoring cancellation, deadline and any
// run.Budget attached to ctx.  On cancellation or budget exhaustion it
// returns (nil, err).
func MaxCoreCtx(ctx context.Context, h *hypergraph.Hypergraph) (*Result, error) {
	d, err := DecomposeCtx(ctx, h)
	if err != nil {
		return nil, err
	}
	return d.Core(d.MaxK), nil
}
