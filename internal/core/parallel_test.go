// Regression and cancellation tests for the parallel k-core: the
// sharded peel stopped at level k (core.ShardedKCore, the public
// hyperplex.KCoreParallel).  External test package because check
// imports core.
package core_test

import (
	"context"
	"errors"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/run"
)

// TestKCoreParallelWorkerFallback is the regression test for the
// shard- and worker-count policies: values ≤ 0 fall back to
// runtime.NumCPU() and absurdly large requests are clamped, so every
// value must still produce the sequential answer rather than misbehave.
func TestKCoreParallelWorkerFallback(t *testing.T) {
	for i, h := range check.Instances(4, 2026) {
		want := core.KCore(h, 2)
		for _, workers := range []int{-1, 0, 1, 3, 1 << 20} {
			got := core.ShardedKCore(h, 2, core.ShardedOptions{Shards: workers, Workers: workers})
			if err := check.SameResult(h, want, got); err != nil {
				t.Fatalf("instance %d workers=%d: parallel disagrees with sequential: %v",
					i, workers, err)
			}
		}
	}
}

func TestKCoreParallelCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, h := range check.Instances(2, 7) {
		r, err := core.ShardedKCoreCtx(ctx, h, 2, core.ShardedOptions{Shards: 4, Workers: 4})
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("instance %d: want (nil, context.Canceled), got (%v, %v)", i, r, err)
		}
	}
}

func TestKCoreParallelCtxBudget(t *testing.T) {
	insts := check.Instances(2, 11)
	h := insts[len(insts)-1] // the largest random instance
	ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
	r, err := core.ShardedKCoreCtx(ctx, h, 2, core.ShardedOptions{Shards: 4, Workers: 4})
	if r != nil || !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("want (nil, ErrBudgetExceeded), got (%v, %v)", r, err)
	}
}
