package core

import (
	"context"
	"fmt"

	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// This file is the engine layer's one implementation of the
// bulk-synchronous sharded peel.  A DistPeeler is a replica: the full
// hypergraph as a csr.CSR, the global alive/degree/coreness mirrors,
// and the shardPeel arenas of the shards assigned to it.  Each round's
// cross-shard traffic is two broadcast deltas — the dying hyperedge IDs
// and the retired vertex IDs — which every replica applies uniformly,
// so the mirrors of several replicas never diverge.  Degree
// decrements, alive flips and coreness clamps are commutative within a
// phase, so the fixpoint per level (and therefore the coreness
// assignment) is identical to Decompose.
//
// Two schedulers drive the same phase methods:
//
//   - ShardedDecomposeCtx and ShardedKCoreCtx (sharded.go) run one
//     replica that owns every shard in process, fanning the per-shard
//     check out over a goroutine pool;
//   - the internal/dist coordinator runs one replica per worker and
//     carries the deltas over the wire.
//
// Fault tolerance hangs off two snapshot layers:
//
//   - ShardSnapshot is the wire-serializable barrier state of a single
//     shardPeel (owned degrees, alive count, pending dying edges); the
//     coordinator collects one per shard at every barrier and replays
//     it onto a surviving worker when the owner dies.
//   - PeelCheckpoint is a worker-local deep copy of the whole replica
//     (mirrors plus every owned ShardSnapshot); survivors restore it on
//     rollback so the round replays from the last completed barrier.
//
// Everything else — the bucket queue, the shrink stamps, the frontier
// lists — is reconstructed from those snapshots plus the mirrors, so a
// restored replica continues bit-identically (distshard_test.go pins
// this).

// ShardSnapshot is the barrier state of one shard's peel, in wire-ready
// form: flat int32 arrays, global IDs, no pointers into the arena.
type ShardSnapshot struct {
	Shard  int32   // shard index
	AliveV int32   // alive owned vertices
	Deg    []int32 // current degree per owned vertex, by owned offset
	Dying  []int32 // pending dying hyperedges (global IDs), found by the last check phase
}

// Clone deep-copies the snapshot.
func (sn *ShardSnapshot) Clone() *ShardSnapshot {
	return &ShardSnapshot{
		Shard:  sn.Shard,
		AliveV: sn.AliveV,
		Deg:    append([]int32(nil), sn.Deg...),
		Dying:  append([]int32(nil), sn.Dying...),
	}
}

// PeelCheckpoint is a worker-local deep copy of a DistPeeler at a
// barrier: the global mirrors plus a ShardSnapshot per owned shard.
type PeelCheckpoint struct {
	K      int
	Round  int32
	vAlive []bool
	eAlive []bool
	eDeg   []int32
	vCore  []int
	eCore  []int
	shards []*ShardSnapshot
}

// shardPeel is one shard's peel state, every int32 array of it carved
// from a single arena.  Owned vertices are addressed by their offset j
// in the contiguous owned block (global ID lo+j); the work lists hold
// global IDs.
type shardPeel struct {
	lo int32 // first owned global vertex ID
	n  int32 // owned vertex count

	deg []int32 // current degree per owned vertex, indexed by j

	// Lazy bucket queue over the owned vertices: head[d] is the top
	// entry index of the degree-d bucket, next links entries, item
	// holds the owned offset of each entry.  A vertex is re-pushed on
	// every decrement; stale entries are skipped at gather time.
	head, next, item []int32
	nfree            int32
	cur              int // lowest possibly-non-empty bucket

	stamp    []int32 // per owned hyperedge, by owner-local index: last round it shrank
	frontier []int32 // owned vertices gathered below the threshold this round
	shrunk   []int32 // owned hyperedges to re-check: shrunk this round, or all of them at assignment

	// dying is the shard's contribution to the next dying broadcast:
	// the owned hyperedges its last check found empty or non-maximal.
	//hyperplexvet:outbox
	dying []int32

	aliveV int
}

// push records that owned vertex j now has degree d.  Entries are
// never removed eagerly; gathers skip entries whose recorded degree is
// stale.
func (p *shardPeel) push(j int32, d int) {
	idx := p.nfree
	p.nfree++
	p.item[idx] = j
	p.next[idx] = p.head[d]
	p.head[d] = idx
	if d < p.cur {
		p.cur = d
	}
}

// phaseCheckEvery bounds the elementary operations a phase method
// performs between two cancellation/budget checkpoints.
const phaseCheckEvery = 1 << 12

// phaseTick accrues one phase call's elementary operations and hands
// them to run.Tick once phaseCheckEvery have built up; flush charges
// the remainder when the phase ends.
type phaseTick struct {
	meter *run.Meter
	ops   int
}

func (t *phaseTick) charge(ctx context.Context, n int) error {
	t.ops += n
	if t.ops < phaseCheckEvery {
		return nil
	}
	return t.flush(ctx)
}

func (t *phaseTick) flush(ctx context.Context) error {
	n := t.ops
	t.ops = 0
	return run.Tick(ctx, t.meter, int64(n))
}

// DistPeeler is one replica of the sharded peel: the full hypergraph,
// the global mirrors, and the shardPeel arenas of the shards assigned
// to it.  It is not safe for concurrent use, except that distinct
// shards may be checked concurrently (sharded.go).
type DistPeeler struct {
	c    *csr.CSR
	part *partition.Partition

	vAlive, eAlive []bool
	eDeg           []int32 // alive member count per hyperedge, zero once dead: the detector's snapshot
	vCore, eCore   []int

	// eLocal maps a global hyperedge ID to its owner-local index (its
	// position in part.Shards[owner].Edges), the stamp address.
	eLocal []int32

	shards []*shardPeel // indexed by shard; nil when not owned here
	det    *csr.Detector

	k     int   // current peeling threshold
	round int32 // shrink-stamp generation, advanced per retire phase
}

// NewDistPeeler builds a fresh replica over h and its partition: all
// vertices and hyperedges alive, no shards assigned.
func NewDistPeeler(h *hypergraph.Hypergraph, part *partition.Partition) *DistPeeler {
	nv, ne := h.NumVertices(), h.NumEdges()
	c := csr.FromH(h)
	w := &DistPeeler{
		c:      c,
		part:   part,
		vAlive: make([]bool, nv),
		eAlive: make([]bool, ne),
		eDeg:   make([]int32, ne),
		vCore:  make([]int, nv),
		eCore:  make([]int, ne),
		eLocal: make([]int32, ne),
		shards: make([]*shardPeel, part.NumShards()),
		det:    csr.NewDetector(c),
	}
	for v := 0; v < nv; v++ {
		w.vAlive[v] = true
	}
	for f := 0; f < ne; f++ {
		w.eAlive[f] = true
		w.eDeg[f] = int32(h.EdgeDegree(f))
	}
	// Each shard lists its hyperedges in ascending ID order, so a
	// running count per owner yields every owner-local index.
	next := make([]int32, part.NumShards())
	for g, s := range part.EdgeOwner {
		w.eLocal[g] = next[s]
		next[s]++
	}
	return w
}

// NumShards returns the partition's shard count.
func (w *DistPeeler) NumShards() int { return w.part.NumShards() }

// Owned returns the ascending indices of the shards assigned here.
func (w *DistPeeler) Owned() []int {
	var out []int
	for s, p := range w.shards {
		if p != nil {
			out = append(out, s)
		}
	}
	return out
}

// newShard carves the structural arrays of shard s's peel: degrees,
// the lazy bucket queue sized for one initial push per owned vertex
// plus one per possible decrement, the owner-local shrink stamps and
// the work lists.  Degrees and queue contents are filled by the
// caller (fresh assign or snapshot restore).
func (w *DistPeeler) newShard(s int) *shardPeel {
	sh := &w.part.Shards[s]
	n := csr.MustInt32(len(sh.Vertices))
	p := &shardPeel{n: n}
	if n > 0 {
		p.lo = sh.Vertices[0]
	}
	maxDeg, ownedInc := int32(0), int32(0)
	for j := int32(0); j < n; j++ {
		d := w.c.VertexDegree(p.lo + j)
		if d > maxDeg {
			maxDeg = d
		}
		ownedInc += d
	}
	ne := csr.MustInt32(len(sh.Edges))
	entries := n + ownedInc
	// One arena allocation backs every int32 slice of the shard, so the
	// work lists the phases append to are arena-owned everywhere.
	arena := make([]int32, n+(maxDeg+1)+2*entries+ne+n+2*ne)
	carve := func(sz int32) []int32 {
		s := arena[:sz:sz]
		arena = arena[sz:]
		return s
	}
	p.deg = carve(n)
	p.head = carve(maxDeg + 1)
	p.next = carve(entries)
	p.item = carve(entries)
	p.stamp = carve(ne)
	p.frontier = carve(n)[:0]
	p.shrunk = carve(ne)[:0]
	p.dying = carve(ne)[:0]
	for i := range p.head {
		p.head[i] = -1
	}
	for i := range p.stamp {
		p.stamp[i] = -1
	}
	p.cur = len(p.head)
	return p
}

// assignFresh assigns shard s to this replica in its initial state,
// with every owned hyperedge queued for the round-0 check.
func (w *DistPeeler) assignFresh(s int) {
	p := w.newShard(s)
	for j := int32(0); j < p.n; j++ {
		p.deg[j] = w.c.VertexDegree(p.lo + j)
		p.push(j, int(p.deg[j]))
	}
	p.aliveV = int(p.n)
	p.shrunk = append(p.shrunk, w.part.Shards[s].Edges...)
	w.shards[s] = p
}

// AssignFresh assigns shard s to this replica in its initial state and
// runs the round-0 reduction over its owned hyperedges (empty and
// initially non-maximal hyperedges die at coreness 0).  It returns the
// shard's first barrier snapshot.
func (w *DistPeeler) AssignFresh(s int) *ShardSnapshot {
	w.assignFresh(s)
	w.checkShard(s, w.det)
	return w.Snapshot(s)
}

// AssignSnapshot assigns shard s to this replica, restored from a
// barrier snapshot: degrees come from the snapshot, the bucket queue is
// rebuilt with one push per alive owned vertex at its current degree,
// and the pending dying list is validated against the partition.
// The global mirrors must already be at the same barrier.
func (w *DistPeeler) AssignSnapshot(sn *ShardSnapshot) error {
	s := int(sn.Shard)
	if s < 0 || s >= len(w.shards) {
		return fmt.Errorf("core: dist shard snapshot for shard %d of %d", s, len(w.shards))
	}
	p := w.newShard(s)
	if len(sn.Deg) != int(p.n) {
		return fmt.Errorf("core: dist shard %d snapshot has %d degrees, want %d", s, len(sn.Deg), p.n)
	}
	copy(p.deg, sn.Deg)
	p.aliveV = int(sn.AliveV)
	for j := int32(0); j < p.n; j++ {
		if w.vAlive[p.lo+j] {
			p.push(j, int(p.deg[j]))
		}
	}
	for _, g := range sn.Dying {
		if g < 0 || int(g) >= len(w.eLocal) || w.part.EdgeOwner[g] != int32(s) {
			return fmt.Errorf("core: dist shard %d snapshot dying edge %d is not owned by it", s, g)
		}
		p.dying = append(p.dying, g)
	}
	w.shards[s] = p
	return nil
}

// DropShard releases shard s (its owner moved elsewhere).
func (w *DistPeeler) DropShard(s int) { w.shards[s] = nil }

// Snapshot captures owned shard s's barrier state.
func (w *DistPeeler) Snapshot(s int) *ShardSnapshot {
	p := w.shards[s]
	return &ShardSnapshot{
		Shard:  int32(s),
		AliveV: int32(p.aliveV),
		Deg:    append([]int32(nil), p.deg...),
		Dying:  append([]int32(nil), p.dying...),
	}
}

// clampCore is the shared coreness assignment: state retired while
// peeling toward threshold k belonged to the (k-1)-core.
func (w *DistPeeler) clampCore() int {
	if w.k < 1 {
		return 0
	}
	return w.k - 1
}

// ApplyDying applies a round's broadcast dying-hyperedge delta at
// threshold k: every replica retires the edges in its mirrors, and the
// owners of their alive members decrement those vertices' degrees
// (re-pushing them at the new bucket).  The union must cover every
// shard's pending dying list; the pending lists are consumed.
//
//hyperplexvet:hotpath
func (w *DistPeeler) ApplyDying(ctx context.Context, k int, dying []int32) error {
	w.k = k
	t := phaseTick{meter: run.MeterFrom(ctx)}
	for _, g := range dying {
		w.eAlive[g] = false
		w.eDeg[g] = 0
		w.eCore[g] = w.clampCore()
		members := w.c.EdgeVertices(g)
		for _, v := range members {
			if !w.vAlive[v] {
				continue
			}
			if p := w.shards[w.part.VertexOwner[v]]; p != nil {
				j := v - p.lo
				p.deg[j]--
				p.push(j, int(p.deg[j]))
			}
		}
		if err := t.charge(ctx, 1+len(members)); err != nil {
			return err
		}
	}
	for _, p := range w.shards {
		if p != nil {
			p.dying = p.dying[:0]
		}
	}
	return t.flush(ctx)
}

// GatherFrontier gathers every owned shard's frontier — alive owned
// vertices whose degree fell below the threshold — from the bucket
// queues, skipping stale entries (each alive owned vertex below the
// threshold has exactly one current entry, pushed by its last
// decrement), and returns the local frontier size and alive-vertex
// count for the barrier vote.
//
//hyperplexvet:hotpath
func (w *DistPeeler) GatherFrontier(ctx context.Context) (frontier, alive int, err error) {
	t := phaseTick{meter: run.MeterFrom(ctx)}
	for _, p := range w.shards {
		if err := t.charge(ctx, 1); err != nil {
			return 0, 0, err
		}
		if p == nil {
			continue
		}
		p.frontier = p.frontier[:0]
		top := min(w.k, len(p.head))
		for d := p.cur; d < top; d++ {
			pops := 0
			for idx := p.head[d]; idx != -1; idx = p.next[idx] {
				pops++
				j := p.item[idx]
				if w.vAlive[p.lo+j] && int(p.deg[j]) == d {
					p.frontier = append(p.frontier, p.lo+j)
				}
			}
			p.head[d] = -1
			if err := t.charge(ctx, pops); err != nil {
				return 0, 0, err
			}
		}
		p.cur = max(p.cur, top)
		frontier += len(p.frontier)
		alive += p.aliveV
	}
	return frontier, alive, t.flush(ctx)
}

// CollectRetired drains the gathered frontiers into dst, as global
// vertex IDs for the retire broadcast, and returns the extended slice.
// dst must have spare capacity for every gathered vertex (NumVertices
// always suffices), so the hand-off never allocates.  Nothing is
// applied yet: the scheduler gathers every replica's contribution and
// broadcasts the union, which ApplyRetired then applies uniformly.
//
//hyperplexvet:hotpath
func (w *DistPeeler) CollectRetired(dst []int32) []int32 {
	for _, p := range w.shards {
		if p != nil {
			n := len(dst)
			dst = dst[:n+len(p.frontier)]
			copy(dst[n:], p.frontier)
			p.frontier = p.frontier[:0]
		}
	}
	return dst
}

// ApplyRetired applies a round's broadcast retired-vertex delta: every
// replica retires the vertices in its mirrors and decrements the
// degrees of their alive hyperedges, and the owners of those hyperedges
// queue them, once per round, for the shrunk-edge check.
//
//hyperplexvet:hotpath
func (w *DistPeeler) ApplyRetired(ctx context.Context, retired []int32) error {
	w.round++
	t := phaseTick{meter: run.MeterFrom(ctx)}
	for _, vg := range retired {
		w.vAlive[vg] = false
		w.vCore[vg] = w.clampCore()
		if p := w.shards[w.part.VertexOwner[vg]]; p != nil {
			p.aliveV--
		}
		edges := w.c.VertexEdges(vg)
		for _, g := range edges {
			if !w.eAlive[g] {
				continue
			}
			w.eDeg[g]--
			if ps := w.shards[w.part.EdgeOwner[g]]; ps != nil {
				fi := w.eLocal[g]
				if ps.stamp[fi] != w.round {
					ps.stamp[fi] = w.round
					ps.shrunk = append(ps.shrunk, g)
				}
			}
		}
		if err := t.charge(ctx, 1+len(edges)); err != nil {
			return err
		}
	}
	return t.flush(ctx)
}

// CheckShrunk runs the shrunk-edge check on every owned shard in turn,
// refilling each shard's pending dying list.  Snapshot then serves the
// barrier state.
//
//hyperplexvet:hotpath
func (w *DistPeeler) CheckShrunk() {
	for s, p := range w.shards {
		if p != nil {
			w.checkShard(s, w.det)
		}
	}
}

// checkShard re-checks the queued hyperedges of shard s for emptiness
// or non-maximality against the mirrors, refills the shard's pending
// dying list, and returns the number checked.  It reads only the
// mirrors, which no phase writes while checks run, and writes only
// shard s's peel and det's scratch — so distinct shards may be checked
// concurrently, one detector fork per goroutine.
//
//hyperplexvet:phase owned
//hyperplexvet:hotpath
func (w *DistPeeler) checkShard(s int, det *csr.Detector) int {
	p := w.shards[s]
	p.dying = p.dying[:0]
	for _, g := range p.shrunk {
		if w.eDeg[g] == 0 || det.NonMaximal(g, w.vAlive, w.eDeg) {
			p.dying = append(p.dying, g)
		}
	}
	n := len(p.shrunk)
	p.shrunk = p.shrunk[:0]
	return n
}

// appendDying appends every owned shard's pending dying hyperedges to
// dst and returns the extended slice: the in-process scheduler's dying
// broadcast.  Like CollectRetired it never allocates; dst must have
// spare capacity for them (NumEdges always suffices).
//
//hyperplexvet:hotpath
func (w *DistPeeler) appendDying(dst []int32) []int32 {
	for _, p := range w.shards {
		if p != nil {
			n := len(dst)
			dst = dst[:n+len(p.dying)]
			copy(dst[n:], p.dying)
		}
	}
	return dst
}

// Coreness copies out the replica's coreness mirrors.  Valid once the
// scheduler has driven every vertex to retirement; every replica
// holds the full arrays, so any worker can serve the result.
func (w *DistPeeler) Coreness() (vCore, eCore []int) {
	return append([]int(nil), w.vCore...), append([]int(nil), w.eCore...)
}

// Checkpoint deep-copies the replica at a barrier: mirrors plus one
// ShardSnapshot per owned shard.  Restore brings the replica back to
// exactly this state.
func (w *DistPeeler) Checkpoint() *PeelCheckpoint {
	cp := &PeelCheckpoint{
		K:      w.k,
		Round:  w.round,
		vAlive: append([]bool(nil), w.vAlive...),
		eAlive: append([]bool(nil), w.eAlive...),
		eDeg:   append([]int32(nil), w.eDeg...),
		vCore:  append([]int(nil), w.vCore...),
		eCore:  append([]int(nil), w.eCore...),
	}
	for s, p := range w.shards {
		if p != nil {
			cp.shards = append(cp.shards, w.Snapshot(s))
		}
	}
	return cp
}

// Restore rolls the replica back to a checkpoint taken on this
// replica: mirrors are copied back and every owned shardPeel is
// rebuilt from its barrier snapshot, so the continuation is
// bit-identical to a run that never left the barrier.
func (w *DistPeeler) Restore(cp *PeelCheckpoint) error {
	w.k = cp.K
	w.round = cp.Round
	copy(w.vAlive, cp.vAlive)
	copy(w.eAlive, cp.eAlive)
	copy(w.eDeg, cp.eDeg)
	copy(w.vCore, cp.vCore)
	copy(w.eCore, cp.eCore)
	for s := range w.shards {
		w.shards[s] = nil
	}
	for _, sn := range cp.shards {
		if err := w.AssignSnapshot(sn); err != nil {
			return err
		}
	}
	return nil
}
