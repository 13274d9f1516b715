package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/store"
)

// planted has a 3-core {a,b,c,d} plus pendants.
const planted = "e1: a b c\ne2: a b d\ne3: a c d\ne4: b c d\np1: a x\np2: x y\n"

func TestRunMaxCore(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "3-core: 4 vertices, 4 hyperedges") {
		t.Errorf("unexpected output:\n%s", got)
	}
	if !strings.Contains(got, "vertex a") || !strings.Contains(got, "hyperedge e4") {
		t.Errorf("member listing missing:\n%s", got)
	}
}

func TestRunExplicitK(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-k", "2", "-quiet"}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2-core:") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestRunParallelMatchesSequential pins -k with -shards, the sharded
// parallel peel stopped at level k, to the sequential k-core byte for
// byte, member listing included.
func TestRunParallelMatchesSequential(t *testing.T) {
	for _, k := range []string{"0", "2", "3", "5"} {
		var seq bytes.Buffer
		if err := run([]string{"-k", k}, strings.NewReader(planted), &seq); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []string{"1", "3"} {
			var par bytes.Buffer
			if err := run([]string{"-k", k, "-shards", shards}, strings.NewReader(planted), &par); err != nil {
				t.Fatal(err)
			}
			if seq.String() != par.String() {
				t.Errorf("-k %s -shards %s: sequential %q vs sharded %q", k, shards, seq.String(), par.String())
			}
		}
	}
}

func TestRunShardedMatchesSequential(t *testing.T) {
	for _, mode := range [][]string{
		{"-max", "-quiet"},
		{"-decompose"},
	} {
		var seq, sharded bytes.Buffer
		if err := run(mode, strings.NewReader(planted), &seq); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-shards", "3"}, mode...), strings.NewReader(planted), &sharded); err != nil {
			t.Fatal(err)
		}
		if seq.String() != sharded.String() {
			t.Errorf("%v: sequential %q vs sharded %q", mode, seq.String(), sharded.String())
		}
	}
}

func TestRunBiCoreFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-k", "2", "-l", "3", "-quiet"}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2-core: 4 vertices") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunDecompose(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-decompose"}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "maximum core: 3") {
		t.Errorf("output:\n%s", got)
	}
	if !strings.Contains(got, "a\t3") || !strings.Contains(got, "y\t1") {
		t.Errorf("coreness listing missing:\n%s", got)
	}
	if !strings.Contains(got, "3-core: 4 vertices, 4 hyperedges") {
		t.Errorf("profile missing:\n%s", got)
	}
}

func TestRunPajekOutput(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "core")
	var out bytes.Buffer
	if err := run([]string{"-quiet", "-pajek", prefix}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	net, err := os.ReadFile(prefix + ".net")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(net), "*Edges") {
		t.Error(".net missing edges section")
	}
	if _, err := os.Stat(prefix + ".clu"); err != nil {
		t.Error(".clu missing")
	}
}

func TestRunBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("garbage without colon"), &out); err == nil {
		t.Error("bad input accepted")
	}
}

// TestRunDistMatchesSequential pins the -dist route (coordinator plus
// an in-process worker pool over loopback TCP) to the sequential
// output byte for byte, with and without -local-fallback.
func TestRunDistMatchesSequential(t *testing.T) {
	for _, mode := range [][]string{
		{"-max", "-quiet"},
		{"-decompose", "-quiet"},
	} {
		var seq, dist bytes.Buffer
		if err := run(mode, strings.NewReader(planted), &seq); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-dist", "2", "-shards", "3", "-local-fallback"}, mode...), strings.NewReader(planted), &dist); err != nil {
			t.Fatal(err)
		}
		if seq.String() != dist.String() {
			t.Errorf("%v: sequential %q vs dist %q", mode, seq.String(), dist.String())
		}
	}
}

// TestRunStoreMatchesText pins the -store route byte for byte against
// the text route, member listings included, on the calibrated Cellzome
// instance — the ISSUE's out-of-core smoke: text → store file →
// memory-mapped decomposition must be indistinguishable from the
// all-in-RAM run.
func TestRunStoreMatchesText(t *testing.T) {
	dir := t.TempDir()
	h := dataset.Cellzome().H
	textPath := filepath.Join(dir, "cellzome.txt")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.WriteText(tf, h); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	// Build the store from the text file with the streaming builder, so
	// both routes see the same first-encounter vertex numbering (the
	// original instance's insertion order is not recoverable from text).
	storePath := filepath.Join(dir, "cellzome.store")
	if err := store.BuildFile(storePath, store.FileSource("text", textPath)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{
		{"-max"},
		{"-decompose"},
		{"-k", "4"},
	} {
		var text, mapped bytes.Buffer
		if err := run(append(append([]string{}, mode...), textPath), nil, &text); err != nil {
			t.Fatal(err)
		}
		if err := run(append(append([]string{}, mode...), "-store", storePath), nil, &mapped); err != nil {
			t.Fatal(err)
		}
		if text.String() != mapped.String() {
			t.Errorf("%v: text and -store outputs differ", mode)
		}
	}
}

func TestRunStoreBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.store")
	if err := os.WriteFile(path, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-store", path}, nil, &out); err == nil {
		t.Error("junk store file accepted")
	}
}

// TestRunMaxCoreHonorsDist pins that -max with -dist runs on the worker
// pool: a pool whose worker binary does not exist must fail the run,
// and with -local-fallback the run must match the sequential output.
func TestRunMaxCoreHonorsDist(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-hgshardd")
	args := []string{"-max", "-quiet", "-dist", "2", "-hgshardd", bad}
	var out bytes.Buffer
	if err := run(args, strings.NewReader(planted), &out); err == nil {
		t.Errorf("%v: unspawnable worker pool accepted; -dist was not used", args)
	}
	var seq, fallback bytes.Buffer
	if err := run([]string{"-max", "-quiet"}, strings.NewReader(planted), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-local-fallback"), strings.NewReader(planted), &fallback); err != nil {
		t.Fatal(err)
	}
	if seq.String() != fallback.String() {
		t.Errorf("%v: sequential %q vs dist fallback %q", args, seq.String(), fallback.String())
	}
}

// TestRunEngineFlagsWithKAreUsageErrors pins that every flag the
// chosen route would ignore is rejected instead: -l without -k or with
// an engine flag, -k with -dist, and the -dist options without -dist.
// The process exits with status 2 and prints nothing.
func TestRunEngineFlagsWithKAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "3", "-dist", "2"},
		{"-k", "2", "-l", "3", "-dist", "2"},
		{"-k", "2", "-l", "3", "-shards", "2"},
		{"-k", "0", "-shards", "1", "-dist", "1"},
		{"-l", "3"},
		{"-max", "-l", "2"},
		{"-decompose", "-l", "1"},
		{"-l", "2", "-shards", "2"},
		{"-hgshardd", "hgshardd"},
		{"-decompose", "-local-fallback"},
		{"-max", "-shards", "2", "-hgshardd", "hgshardd", "-local-fallback"},
	} {
		var out bytes.Buffer
		err := run(append(args, "-quiet"), strings.NewReader(planted), &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if got := exitCode(err); got != 2 {
			t.Errorf("%v: exit code %d, want 2", args, got)
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage error still printed a core:\n%s", args, out.String())
		}
	}
}

func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{fmt.Errorf("%w: bad combination", errUsage), 2},
		{errors.New("hgcore: read failed"), 1},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	var out bytes.Buffer
	if got := exitCode(run([]string{"-no-such-flag"}, strings.NewReader(planted), &out)); got != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", got)
	}
}
