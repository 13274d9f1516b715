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
	"hyperplex/internal/run"
)

// fpParallelWorker fires inside every parallel worker chunk, so an
// injected panic exercises the worker recovery boundary.
var fpParallelWorker = failpoint.Register("core.parallel.worker")

// maxParallelWorkers caps the worker count: each worker owns O(|F|)
// scratch arrays, so an absurd request would turn into an allocation
// bomb rather than more parallelism.
const maxParallelWorkers = 512

// normalizeWorkers applies the documented worker-count policy shared
// by the parallel kernels: ≤ 0 selects runtime.NumCPU(), and requests
// beyond maxParallelWorkers are clamped.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > maxParallelWorkers {
		workers = maxParallelWorkers
	}
	return workers
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

// KCoreParallel computes the k-core of h with a round-synchronous
// parallel peeling algorithm, answering the paper's observation that
// "for large hypergraphs, a parallel algorithm will need to be
// designed".  workers ≤ 0 selects runtime.NumCPU(); requests beyond an
// internal cap are clamped (each worker owns O(|F|) scratch).
//
// Each round proceeds in three parallel phases over a frontier:
//
//  1. every alive vertex whose degree fell below k is retired, and the
//     hyperedge degrees of its hyperedges are decremented atomically;
//  2. every hyperedge that shrank is re-checked for emptiness and
//     maximality by the shared detector (csr.Detector, one fork per
//     worker) over the alive snapshot the phase barrier froze;
//  3. every hyperedge that died decrements the degrees of its alive
//     members atomically, seeding the next round's frontier.
//
// The k-core is a confluent fixpoint, so the parallel schedule reaches
// the same vertex set and the same family of hyperedge member-sets as
// the sequential algorithm; with the shared (degree, ID) tie-break for
// equal hyperedges the surviving edge IDs match as well.
func KCoreParallel(h *hypergraph.Hypergraph, k int, workers int) *Result {
	r, err := KCoreParallelCtx(context.Background(), h, k, workers)
	if err != nil {
		// Only reachable through an armed failpoint or a genuine worker
		// bug; either way the panic carries the recovered cause.
		panic(err)
	}
	return r
}

// KCoreParallelCtx is KCoreParallel honoring cancellation, deadline
// and any run.Budget attached to ctx, checked inside every worker
// chunk at bounded intervals.  A panic in a worker is recovered at the
// worker boundary and returned as a *WorkerPanicError — workers never
// leak and panics never cross goroutines.  On any error it returns
// (nil, err): the half-peeled state is not a valid core.
func KCoreParallelCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, workers int) (*Result, error) {
	workers = normalizeWorkers(workers)
	meter := run.MeterFrom(ctx)
	// Entry checkpoint: an already-cancelled context fails before any
	// work, even on inputs too small to reach a worker checkpoint.
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	// The detector reads pins through the flat CSR view (the adjacency
	// is aliased from h, so this costs only the offsets).
	cv := csr.FromH(h)

	// The state is plain arrays.  A write phase writes them through
	// sync/atomic where several workers can hit the same entry (degree
	// decrements, shrink stamps) and plainly where each entry has one
	// writer (liveness flips of distinct frontier vertices and dying
	// hyperedges); the check phase only reads them, after the barrier
	// of the phase before.  A dead hyperedge keeps eDeg == 0, the
	// detector's snapshot contract.
	vAlive := make([]bool, nv)
	eAlive := make([]bool, ne)
	vDeg := make([]int32, nv)
	eDeg := make([]int32, ne)
	for v := 0; v < nv; v++ {
		vAlive[v] = true
		vDeg[v] = int32(h.VertexDegree(v))
	}
	for f := 0; f < ne; f++ {
		eAlive[f] = true
		eDeg[f] = int32(h.EdgeDegree(f))
	}

	minDeg := int32(k)
	if minDeg < 1 {
		minDeg = 1 // the 0-core still drops isolated vertices
	}

	// parallelRange runs fn over [0, n) split into worker chunks.  A
	// worker panic is recovered at the goroutine boundary (first one
	// wins) and returned; fn's own error return aborts likewise.  Every
	// chunk starts with a failpoint and a cancellation/budget tick, so
	// a stuck or cancelled computation stops at the next round phase.
	var panicErr atomic.Pointer[WorkerPanicError]
	var firstErr atomic.Pointer[error]
	parallelRange := func(n int, fn func(lo, hi, worker int) error) error {
		if n == 0 {
			return nil
		}
		w := workers
		if w > n {
			w = n
		}
		var wg sync.WaitGroup
		chunk := (n + w - 1) / w
		//hyperplexvet:ignore budgettick bounded spawn loop: at most workers iterations of O(1) setup; each spawned chunk ticks at entry
		for i := 0; i < w; i++ {
			lo := i * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
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
				if err := failpoint.Inject(fpParallelWorker); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if err := run.Tick(ctx, meter, int64(hi-lo)); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if err := fn(lo, hi, worker); err != nil {
					firstErr.CompareAndSwap(nil, &err)
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

	// checkEdges re-checks the hyperedges listed in cand (all alive)
	// for emptiness or non-maximality and returns those that must die.
	// The detection is the shared detector; per-worker forks keep the
	// stamp scratch race-free, and the phase writes nothing the
	// detector reads.
	dets := make([]*csr.Detector, workers)
	dets[0] = csr.NewDetector(cv)
	for i := 1; i < workers; i++ {
		dets[i] = dets[0].Fork()
	}
	checkEdges := func(cand []int32) ([]int32, error) {
		dead := make([][]int32, workers)
		err := parallelRange(len(cand), func(lo, hi, worker int) error {
			det := dets[worker]
			//hyperplexvet:ignore budgettick charged en bloc by the chunk-entry run.Tick(hi-lo) in parallelRange
			for i := lo; i < hi; i++ {
				f := cand[i]
				if eDeg[f] == 0 || det.NonMaximal(f, vAlive, eDeg) {
					dead[worker] = append(dead[worker], f)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var all []int32
		for _, d := range dead {
			all = append(all, d...)
		}
		return all, nil
	}

	// Round 0: the initial reduction checks every hyperedge.
	initial := make([]int32, ne)
	for f := range initial {
		initial[f] = int32(f)
	}
	round := int32(1)
	dying, err := checkEdges(initial)
	if err != nil {
		return nil, err
	}

	shrunkStamp := make([]int32, ne)
	for f := range shrunkStamp {
		shrunkStamp[f] = -1
	}

	for {
		// Per-round checkpoint: a round whose work list is empty spawns
		// no chunks, so the chunk-entry ticks alone would let the loop
		// pass a round without observing cancellation or the budget.
		if err := run.Tick(ctx, meter, 1); err != nil {
			return nil, err
		}
		// Phase 3 (and entry): retire dead edges, decrement members.
		err := parallelRange(len(dying), func(lo, hi, _ int) error {
			//hyperplexvet:ignore budgettick charged en bloc by the chunk-entry run.Tick(hi-lo) in parallelRange
			for i := lo; i < hi; i++ {
				f := dying[i]
				eAlive[f] = false
				eDeg[f] = 0
				for _, v := range h.Vertices(int(f)) {
					if vAlive[v] {
						atomic.AddInt32(&vDeg[v], -1)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Phase 1: gather the vertex frontier.
		frontierParts := make([][]int32, workers)
		err = parallelRange(nv, func(lo, hi, worker int) error {
			for v := lo; v < hi; v++ {
				if vAlive[v] && vDeg[v] < minDeg {
					frontierParts[worker] = append(frontierParts[worker], int32(v))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var frontier []int32
		for _, p := range frontierParts {
			frontier = append(frontier, p...)
		}
		if len(frontier) == 0 && len(dying) == 0 {
			break
		}
		round++

		// Retire frontier vertices and shrink their edges.
		err = parallelRange(len(frontier), func(lo, hi, _ int) error {
			for i := lo; i < hi; i++ {
				vAlive[frontier[i]] = false
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		shrunkParts := make([][]int32, workers)
		err = parallelRange(len(frontier), func(lo, hi, worker int) error {
			//hyperplexvet:ignore budgettick charged en bloc by the chunk-entry run.Tick(hi-lo) in parallelRange
			for i := lo; i < hi; i++ {
				v := frontier[i]
				for _, f := range h.Edges(int(v)) {
					if !eAlive[f] {
						continue
					}
					atomic.AddInt32(&eDeg[f], -1)
					if atomic.SwapInt32(&shrunkStamp[f], round) != round {
						shrunkParts[worker] = append(shrunkParts[worker], f)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var shrunk []int32
		for _, p := range shrunkParts {
			shrunk = append(shrunk, p...)
		}

		// Phase 2: re-check shrunk edges.
		dying, err = checkEdges(shrunk)
		if err != nil {
			return nil, err
		}
	}

	r := &Result{K: k, VertexIn: make([]bool, nv), EdgeIn: make([]bool, ne)}
	for v := 0; v < nv; v++ {
		if vAlive[v] {
			r.VertexIn[v] = true
			r.NumVertices++
		}
	}
	for f := 0; f < ne; f++ {
		if eAlive[f] {
			r.EdgeIn[f] = true
			r.NumEdges++
		}
	}
	return r, nil
}
