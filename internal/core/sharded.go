package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// This file is the in-process scheduler of the sharded peel.  It builds
// a vertex-block partition (internal/partition), gives one DistPeeler
// replica every shard, and drives it through the same broadcast phases
// the internal/dist coordinator sends over the wire (distshard.go):
// apply the dying delta, gather the frontier, collect and apply the
// retired delta, check the shrunk hyperedges.  The mirrors are frozen
// while hyperedges are checked, so the round-0 reduction and every
// shrunk-edge check fan out over shards on a goroutine pool, one
// csr.Detector fork per worker; the other phases are linear in the
// round's delta and run on the calling goroutine.

// fpShardedWorker fires inside every check worker of the sharded
// decomposition, so an injected panic exercises the worker recovery
// boundary.
var fpShardedWorker = failpoint.Register("core.sharded.worker")

// fpParallelWorker is fpShardedWorker's counterpart for the early-stop
// k-core (ShardedKCore, the engine behind hyperplex.KCoreParallel), so
// a fault can be injected into one entry point's workers alone.
var fpParallelWorker = failpoint.Register("core.parallel.worker")

// fpShardedExchange fires at every exchange barrier, where a round's
// broadcast delta has been applied and the next phase may read it.
var fpShardedExchange = failpoint.Register("core.sharded.exchange")

// maxParallelWorkers caps the worker and shard counts: each worker owns
// O(|F|) detector scratch and each shard an arena, so an absurd request
// would turn into an allocation bomb rather than more parallelism.
const maxParallelWorkers = 512

// normalizeWorkers applies the documented worker-count policy of
// ShardedOptions.Workers: ≤ 0 selects runtime.NumCPU(), and requests
// beyond maxParallelWorkers are clamped.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return min(workers, maxParallelWorkers)
}

// WorkerPanicError reports a panic recovered at a parallel worker
// boundary: the computation is abandoned but the panic surfaces as an
// error instead of crossing goroutines, and no worker is leaked.
type WorkerPanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking worker
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: parallel worker panic: %v", e.Value)
}

// ShardedOptions configures the sharded peel.
type ShardedOptions struct {
	// Shards is the number of vertex blocks: ≤ 0 selects
	// runtime.NumCPU(), and the count is clamped to the vertex count
	// and to the same cap as the worker policy.
	Shards int
	// Workers is the number of goroutines checking shards (≤ 0 →
	// runtime.NumCPU(), capped, and never more than the shards).
	Workers int
}

// normalizeShardCount applies the documented shard policy of
// ShardedOptions.Shards.
func normalizeShardCount(shards, numVertices int) int {
	return min(partition.NormalizeShards(shards, numVertices), maxParallelWorkers)
}

// ShardedDecompose computes the full core decomposition of h with the
// sharded peel.  Vertex coreness and MaxK equal Decompose's: vertex
// coreness is a confluent fixpoint, and the shared (degree, ID)
// tie-break keeps the surviving hyperedge families equal level by
// level.
func ShardedDecompose(h *hypergraph.Hypergraph, opts ShardedOptions) *Decomposition {
	d, err := ShardedDecomposeCtx(context.Background(), h, opts)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return d
}

// ShardedDecomposeCtx is ShardedDecompose honoring cancellation,
// deadline and any run.Budget attached to ctx, checked inside every
// phase.  A panic in a worker is recovered at the worker boundary and
// returned as a *WorkerPanicError — workers never leak and panics
// never cross goroutines.  On any error it returns (nil, err): the
// half-peeled state is not a valid decomposition.
func ShardedDecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph, opts ShardedOptions) (*Decomposition, error) {
	w, maxK, err := peelSharded(ctx, h, opts, 1, -1)
	if err != nil {
		return nil, err
	}
	return &Decomposition{VertexCoreness: w.vCore, EdgeCoreness: w.eCore, MaxK: maxK}, nil
}

// ShardedKCore computes the k-core of h with the sharded peel, stopping
// at the first level fixpoint of threshold max(k, 1) (the 0-core still
// drops isolated vertices).  The vertex set and the hyperedge family
// equal KCore's, since the k-core is a confluent fixpoint.
func ShardedKCore(h *hypergraph.Hypergraph, k int, opts ShardedOptions) *Result {
	r, err := ShardedKCoreCtx(context.Background(), h, k, opts)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return r
}

// ShardedKCoreCtx is ShardedKCore honoring cancellation, deadline and
// any run.Budget attached to ctx, with the worker and error contract
// of ShardedDecomposeCtx.
func ShardedKCoreCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, opts ShardedOptions) (*Result, error) {
	level := max(k, 1)
	w, _, err := peelSharded(ctx, h, opts, level, level)
	if err != nil {
		return nil, err
	}
	r := &Result{K: k, VertexIn: w.vAlive, EdgeIn: w.eAlive}
	for _, in := range r.VertexIn {
		if in {
			r.NumVertices++
		}
	}
	for _, in := range r.EdgeIn {
		if in {
			r.NumEdges++
		}
	}
	return r, nil
}

// peelSharded partitions h and peels it level by level from threshold
// first, carrying all state across levels, until every vertex is
// retired or the level fixpoint of threshold last (last < first: none)
// is reached.  It returns the replica and the largest threshold whose
// fixpoint left vertices alive.
func peelSharded(ctx context.Context, h *hypergraph.Hypergraph, opts ShardedOptions, first, last int) (*DistPeeler, int, error) {
	meter := run.MeterFrom(ctx)
	// Entry checkpoint: an already-cancelled context fails before the
	// partition is built.
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, 0, err
	}
	part, err := partition.BuildCtx(ctx, h, normalizeShardCount(opts.Shards, h.NumVertices()))
	if err != nil {
		return nil, 0, err
	}
	w := NewDistPeeler(h, part)
	ns := part.NumShards()
	workers := min(normalizeWorkers(opts.Workers), ns)
	dets := make([]*csr.Detector, workers)
	dets[0] = w.det
	for i := 1; i < workers; i++ {
		dets[i] = w.det.Fork()
	}
	for s := 0; s < ns; s++ {
		w.assignFresh(s)
		sh := &part.Shards[s]
		if err := run.Tick(ctx, meter, int64(len(sh.Vertices))+int64(sh.Pins)+1); err != nil {
			return nil, 0, err
		}
	}
	kcore := last >= first
	check := func(s, worker int) error {
		n := w.checkShard(s, dets[worker])
		return run.Tick(ctx, meter, int64(n)+1)
	}
	// Round 0: the initial reduction checks every hyperedge.
	if err := forEachShard(ns, workers, kcore, check); err != nil {
		return nil, 0, err
	}
	dying := w.appendDying(make([]int32, 0, h.NumEdges()))
	retired := make([]int32, 0, h.NumVertices())
	maxK := 0
	for k := first; ; k++ {
		for {
			if err := w.ApplyDying(ctx, k, dying); err != nil {
				return nil, 0, err
			}
			if err := exchange(); err != nil {
				return nil, 0, err
			}
			frontier, alive, err := w.GatherFrontier(ctx)
			if err != nil {
				return nil, 0, err
			}
			if frontier == 0 && len(dying) == 0 {
				// Level fixpoint: every alive vertex has degree ≥ k.
				if alive > 0 {
					maxK = k
				}
				if alive == 0 || k == last {
					return w, maxK, nil
				}
				break
			}
			retired = w.CollectRetired(retired[:0])
			if err := w.ApplyRetired(ctx, retired); err != nil {
				return nil, 0, err
			}
			if err := exchange(); err != nil {
				return nil, 0, err
			}
			if err := forEachShard(ns, workers, kcore, check); err != nil {
				return nil, 0, err
			}
			dying = w.appendDying(dying[:0])
		}
	}
}

// exchange is the barrier at which a round's broadcast delta becomes
// visible to the next phase; the failpoint makes the hand-off
// injectable.
func exchange() error {
	if err := failpoint.Inject(fpShardedExchange); err != nil {
		return fmt.Errorf("core: sharded exchange: %w", err)
	}
	return nil
}

// workerFault fires the worker failpoint of the calling entry point:
// the early-stop k-core's or the full decomposition's.
func workerFault(kcore bool) error {
	if kcore {
		return failpoint.Inject(fpParallelWorker)
	}
	return failpoint.Inject(fpShardedWorker)
}

// forEachShard runs fn(s, worker) over shards [0, ns), split across
// workers goroutines, each of which first fires workerFault(kcore).  A
// worker panic is recovered at the goroutine boundary (first one wins)
// and returned as a *WorkerPanicError; fn's own error return aborts
// likewise.
func forEachShard(ns, workers int, kcore bool, fn func(s, worker int) error) error {
	var panicErr atomic.Pointer[WorkerPanicError]
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	chunk := (ns + workers - 1) / workers
	//hyperplexvet:ignore budgettick bounded spawn loop: at most workers iterations of O(1) setup; every phase fn ticks at entry
	for i := 0; i < workers; i++ {
		lo := i * chunk
		hi := min(lo+chunk, ns)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi, worker int) {
			defer wg.Done()
			defer func() {
				if x := recover(); x != nil {
					stack := make([]byte, 16<<10)
					stack = stack[:runtime.Stack(stack, false)]
					panicErr.CompareAndSwap(nil, &WorkerPanicError{Value: x, Stack: stack})
				}
			}()
			if err := workerFault(kcore); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			//hyperplexvet:ignore budgettick every shard fn ends with a run.Tick sized to its shard's work
			for s := lo; s < hi; s++ {
				if err := fn(s, worker); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(lo, hi, i)
	}
	wg.Wait()
	if pe := panicErr.Load(); pe != nil {
		return pe
	}
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}
