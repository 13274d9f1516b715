// Package partition splits a hypergraph into contiguous vertex-block
// shards for the sharded peel (internal/core, distshard.go).
// Each shard owns a block of vertices and the hyperedges anchored in
// it; hyperedges whose members span several blocks are tracked as cut
// edges, and the non-owned vertices reachable through owned hyperedges
// form the shard's frontier.  Blocks are balanced by pin weight
// (1 + d(v) per vertex), so a shard's share of the incidence structure
// — not just its vertex count — is even.
package partition

import (
	"context"
	"fmt"
	"runtime"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpBuild fires at the start of every partition build, so chaos tests
// can fail or stall the construction before any shard exists.
var fpBuild = failpoint.Register("partition.build")

// buildCheckEvery bounds the work between two cancellation/budget
// checkpoints during a build.
const buildCheckEvery = 64

// Shard is one block of a Partition.  All IDs are the original
// hypergraph's.
type Shard struct {
	Index    int
	Vertices []int32 // owned vertices (ascending: a contiguous block)
	Edges    []int32 // owned hyperedges (anchored at their first member)
	Frontier []int32 // non-owned vertices appearing in owned hyperedges
	Cut      []int32 // owned hyperedges with members outside the block
	Pins     int     // Σ d(f) over owned hyperedges
}

// Partition is a disjoint cover of a hypergraph's vertices and
// hyperedges by shards.  Every vertex has exactly one owner; every
// hyperedge is owned by the shard of its first (lowest-ID) member, so
// edge ownership follows vertex ownership deterministically.
//
// Exactly one of H and C backs the incidence structure: Build fills H,
// BuildCSR fills C.  The CSR backing serves the same ascending
// adjacency rows (csr.FromH preserves row order), so the two paths
// partition identically; it exists so a memory-mapped store file can
// be sharded without first rebuilding a Hypergraph in RAM.
type Partition struct {
	H           *hypergraph.Hypergraph
	C           *csr.CSR
	VertexOwner []int32 // shard index per vertex
	EdgeOwner   []int32 // shard index per hyperedge (empty edges → shard 0)
	Shards      []Shard
	CutEdges    []int32 // all hyperedges spanning more than one shard
}

// The accessors below dispatch to whichever backing is present, so the
// block balancing and assembly code is written once.

func (p *Partition) numVertices() int {
	if p.C != nil {
		return p.C.NumVertices()
	}
	return p.H.NumVertices()
}

func (p *Partition) numEdges() int {
	if p.C != nil {
		return p.C.NumEdges()
	}
	return p.H.NumEdges()
}

func (p *Partition) numPins() int {
	if p.C != nil {
		return p.C.NumPins()
	}
	return p.H.NumPins()
}

func (p *Partition) vertexDegree(v int) int {
	if p.C != nil {
		return int(p.C.VertexDegree(int32(v)))
	}
	return p.H.VertexDegree(v)
}

func (p *Partition) edgeVertices(f int) []int32 {
	if p.C != nil {
		return p.C.EdgeVertices(int32(f))
	}
	return p.H.Vertices(f)
}

// NumShards returns the number of shards.
func (p *Partition) NumShards() int { return len(p.Shards) }

// NormalizeShards applies the shared shard-count policy: requests ≤ 0
// select runtime.NumCPU(), and the count is clamped to the vertex
// count (at least one shard even for an empty hypergraph).
func NormalizeShards(shards, numVertices int) int {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	if shards > numVertices {
		shards = numVertices
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// Build partitions h into the requested number of shards (normalized
// by NormalizeShards).
func Build(h *hypergraph.Hypergraph, shards int) *Partition {
	p, err := BuildCtx(context.Background(), h, shards)
	if err != nil {
		// Only reachable through an armed failpoint: the background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return p
}

// BuildCtx is Build honoring cancellation, deadline and any run.Budget
// attached to ctx, checked at bounded intervals throughout the
// construction.  On any error it returns (nil, err).
func BuildCtx(ctx context.Context, h *hypergraph.Hypergraph, shards int) (*Partition, error) {
	return buildCtx(ctx, &Partition{H: h}, shards)
}

// BuildCSR partitions a bare CSR — typically the mapped arrays of a
// store file — into the requested number of shards.  The result has no
// Hypergraph backing (H is nil); ownership, shards and the descriptor
// round trip are identical to Build's.
func BuildCSR(c *csr.CSR, shards int) *Partition {
	p, err := BuildCSRCtx(context.Background(), c, shards)
	if err != nil {
		// Only reachable through an armed failpoint: the background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return p
}

// BuildCSRCtx is BuildCSR honoring cancellation, deadline and any
// run.Budget attached to ctx.  On any error it returns (nil, err).
func BuildCSRCtx(ctx context.Context, c *csr.CSR, shards int) (*Partition, error) {
	return buildCtx(ctx, &Partition{C: c}, shards)
}

// buildCtx runs the shared block balancing over a Partition shell that
// already carries its backing (H or C).
func buildCtx(ctx context.Context, p *Partition, shards int) (*Partition, error) {
	meter := run.MeterFrom(ctx)
	// Entry checkpoint: an already-cancelled context fails before any
	// work, even on inputs too small to reach a periodic checkpoint.
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	if err := failpoint.Inject(fpBuild); err != nil {
		return nil, fmt.Errorf("partition: build: %w", err)
	}
	nv, ne := p.numVertices(), p.numEdges()
	shards = NormalizeShards(shards, nv)

	p.VertexOwner = make([]int32, nv)
	p.EdgeOwner = make([]int32, ne)
	p.Shards = make([]Shard, shards)
	for s := range p.Shards {
		p.Shards[s].Index = s
	}

	// Assign contiguous vertex blocks greedily by pin weight.  Closing
	// a block when the remaining vertices exactly match the remaining
	// shards guarantees every shard owns at least one vertex (shards ≤
	// nv after normalization keeps that reachable).
	target := (nv + p.numPins() + shards - 1) / shards
	s, acc := 0, 0
	for v := 0; v < nv; v++ {
		if v%buildCheckEvery == 0 {
			if err := run.Tick(ctx, meter, buildCheckEvery); err != nil {
				return nil, err
			}
		}
		p.VertexOwner[v] = int32(s)
		p.Shards[s].Vertices = append(p.Shards[s].Vertices, int32(v))
		acc += 1 + p.vertexDegree(v)
		if rem := shards - s - 1; rem > 0 && (acc >= target || nv-v-1 == rem) {
			s++
			acc = 0
		}
	}
	if err := p.assemble(ctx, meter); err != nil {
		return nil, err
	}
	return p, nil
}

// Desc is a serializable shard descriptor: one contiguous owned vertex
// block, identified by its first vertex and length.  A []Desc is the
// whole partition in wire-ready form — a coordinator computes the
// balanced blocks once and ships descriptors, and every worker rebuilds
// the identical Partition with FromDescs regardless of the balancing
// heuristic's inputs.
type Desc struct {
	First int32 // first owned vertex ID
	Count int32 // owned vertex count
}

// Descs returns the partition's shard descriptors, in shard order.
func (p *Partition) Descs() []Desc {
	out := make([]Desc, len(p.Shards))
	for s := range p.Shards {
		sh := &p.Shards[s]
		out[s].Count = csr.MustInt32(len(sh.Vertices))
		if len(sh.Vertices) > 0 {
			out[s].First = sh.Vertices[0]
		}
	}
	return out
}

// FromDescs rebuilds a Partition of h from shard descriptors.
func FromDescs(h *hypergraph.Hypergraph, descs []Desc) *Partition {
	p, err := FromDescsCtx(context.Background(), h, descs)
	if err != nil {
		// Unreachable for descriptors produced by Descs on the same
		// hypergraph under a background context; invalid wire input must
		// go through FromDescsCtx.
		panic(err)
	}
	return p
}

// FromDescsCtx is FromDescs honoring cancellation, deadline and any
// run.Budget attached to ctx.  The descriptors must cover h's vertices
// exactly with contiguous, ascending, non-empty blocks (except that a
// vertexless hypergraph is described by a single empty block); anything
// else — including descriptors from another hypergraph — returns an
// error, so a worker can reject a corrupt or mismatched assignment
// instead of building a partition that silently disagrees with the
// coordinator's.
func FromDescsCtx(ctx context.Context, h *hypergraph.Hypergraph, descs []Desc) (*Partition, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	if err := failpoint.Inject(fpBuild); err != nil {
		return nil, fmt.Errorf("partition: build from descriptors: %w", err)
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	if len(descs) == 0 {
		return nil, fmt.Errorf("partition: no shard descriptors")
	}
	p := &Partition{
		H:           h,
		VertexOwner: make([]int32, nv),
		EdgeOwner:   make([]int32, ne),
		Shards:      make([]Shard, len(descs)),
	}
	next := int32(0)
	for s, d := range descs {
		p.Shards[s].Index = s
		if d.First != next || d.Count < 0 || int(next)+int(d.Count) > nv {
			return nil, fmt.Errorf("partition: shard %d descriptor [%d,+%d) does not continue the block cover at %d of %d vertices",
				s, d.First, d.Count, next, nv)
		}
		if d.Count == 0 && nv > 0 {
			return nil, fmt.Errorf("partition: shard %d descriptor is empty", s)
		}
		for i := int32(0); i < d.Count; i++ {
			v := next + i
			p.VertexOwner[v] = int32(s)
			p.Shards[s].Vertices = append(p.Shards[s].Vertices, v)
		}
		next += d.Count
		if err := run.Tick(ctx, meter, int64(d.Count)+1); err != nil {
			return nil, err
		}
	}
	if int(next) != nv {
		return nil, fmt.Errorf("partition: descriptors cover %d of %d vertices", next, nv)
	}
	if err := p.assemble(ctx, meter); err != nil {
		return nil, err
	}
	return p, nil
}

// assemble derives the ownership-dependent structure — edge anchors,
// cut edges, frontiers — from an already-filled vertex block
// assignment.
func (p *Partition) assemble(ctx context.Context, meter *run.Meter) error {
	nv, ne := p.numVertices(), p.numEdges()

	// Anchor each hyperedge at its first member and record cut edges.
	for f := 0; f < ne; f++ {
		if f%buildCheckEvery == 0 {
			if err := run.Tick(ctx, meter, buildCheckEvery); err != nil {
				return err
			}
		}
		members := p.edgeVertices(f)
		owner := int32(0)
		if len(members) > 0 {
			owner = p.VertexOwner[members[0]]
		}
		p.EdgeOwner[f] = owner
		sh := &p.Shards[owner]
		sh.Edges = append(sh.Edges, int32(f))
		sh.Pins += len(members)
		for _, v := range members {
			if p.VertexOwner[v] != owner {
				sh.Cut = append(sh.Cut, int32(f))
				p.CutEdges = append(p.CutEdges, int32(f))
				break
			}
		}
	}

	// Collect each shard's frontier from its cut edges.  One shard is
	// fully processed before the next, so frontierMark[v] — the last
	// shard that recorded v — deduplicates within a shard while still
	// letting v appear on several shards' frontiers.
	frontierMark := make([]int32, nv)
	for v := range frontierMark {
		frontierMark[v] = -1
	}
	for s := range p.Shards {
		// Per-shard checkpoint: a shard with no cut edges would
		// otherwise pass through the loop without one.
		if err := run.Tick(ctx, meter, 1); err != nil {
			return err
		}
		sh := &p.Shards[s]
		for i, f := range sh.Cut {
			if i%buildCheckEvery == 0 {
				if err := run.Tick(ctx, meter, buildCheckEvery); err != nil {
					return err
				}
			}
			for _, v := range p.edgeVertices(int(f)) {
				if p.VertexOwner[v] != int32(s) && frontierMark[v] != int32(s) {
					frontierMark[v] = int32(s)
					sh.Frontier = append(sh.Frontier, v)
				}
			}
		}
	}
	return nil
}
