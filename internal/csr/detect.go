package csr

import (
	"cmp"
	"math/bits"
	"slices"
)

// This file is the kernel layer's one containment detector: the
// paper's rule that hyperedge f is non-maximal when some other alive
// hyperedge g has |f ∩ g| = d(f), decided without an overlap table and
// without comparing whole membership lists.  Every peeling engine that
// re-checks hyperedges against an alive snapshot calls it — the
// bucket-queue peeler in this package, and internal/core's sharded
// peel, in process and on every distributed replica.
//
// The snapshot contract is two flat arrays: vAlive[v] for vertices and
// eDeg[g] for hyperedges, where eDeg[g] is the number of alive members
// of an alive hyperedge and a dead hyperedge is kept at eDeg[g] == 0.
// Nothing else is read, so no hyperedge-liveness array is needed: a
// dead or empty g can never pass the degree filter below.  The state
// must stay constant for the duration of a check; the callers'
// synchronized phases guarantee it.

// Detector decides non-maximality over an alive snapshot of one CSR.
// It holds the CSR's edge rows re-sorted rarest member first (shared,
// read-only, between the forks of one detector) and the stamp scratch
// of one checking goroutine.
type Detector struct {
	c *CSR

	// mem mirrors the CSR's edge→vertex rows with each row sorted by
	// ascending static vertex row length, so the witnesses of a check
	// are the alive members with the shortest candidate scans and the
	// probed members are the ones least likely to be shared.
	mem []int32

	// estamp[g] holds the stamp generation of the witness passes:
	// during a check, g carries its last generation exactly when g is
	// incident to every witness.  Generations only grow, so the array
	// is never cleared except on int32 wraparound.  cand collects the
	// candidates of the last pass (its length is the largest vertex
	// degree).
	estamp []int32
	seq    int32
	cand   []int32

	// ops accrues the elementary operations charged to this detector;
	// once they reach peelCheckEvery, checkpoint receives them.  The
	// CSR peeler charges its whole cascade through here, so detector
	// and cascade work share one checkpoint interval.  A nil
	// checkpoint drops the count: the snapshot engines charge each
	// check from their phase ticks.
	ops        int
	checkpoint func(n int)
}

// NewDetector returns a detector over c with its witness rows sorted
// and the stamp scratch of one goroutine; Fork gives further
// goroutines their own scratch over the same rows.
func NewDetector(c *CSR) *Detector {
	d := &Detector{
		c:      c,
		mem:    make([]int32, c.NumPins()),
		estamp: make([]int32, c.NumEdges()),
		cand:   make([]int32, maxVertexDegree(c)),
	}
	d.sortWitnesses()
	return d
}

// Fork returns a detector sharing d's CSR and witness rows with fresh
// stamp scratch, for another goroutine checking the same snapshot.
func (d *Detector) Fork() *Detector {
	return &Detector{c: d.c, mem: d.mem, estamp: make([]int32, len(d.estamp)), cand: make([]int32, len(d.cand))}
}

func maxVertexDegree(c *CSR) int32 {
	m := int32(0)
	for v := 0; v < c.NumVertices(); v++ {
		m = max(m, c.VertexDegree(int32(v)))
	}
	return m
}

// insertionSortMax is the longest witness row sorted by insertion.
// Protein complexes are short (the longest row is 65 members on Table
// 1's fdpm37 and 94 on the synthetic proteome), and there insertion
// sort beats a general sort; a longer row would make it quadratic.
const insertionSortMax = 256

// sortWitnesses fills mem from the CSR rows, each sorted stably by
// ascending static vertex row length: by insertion up to
// insertionSortMax members, by a stable sort (the same order, charged
// n·⌈log₂ n⌉) beyond.  Row lengths are a property of the immutable
// CSR, so this runs once.
func (d *Detector) sortWitnesses() {
	c := d.c
	copy(d.mem, c.EAdj)
	for f := 0; f < c.NumEdges(); f++ {
		d.charge(1)
		row := d.mem[c.EOff[f]:c.EOff[f+1]]
		if len(row) > insertionSortMax {
			d.charge(len(row) * bits.Len(uint(len(row)-1)))
			slices.SortStableFunc(row, func(a, b int32) int {
				return cmp.Compare(c.VOff[a+1]-c.VOff[a], c.VOff[b+1]-c.VOff[b])
			})
			continue
		}
		for i := 1; i < len(row); i++ {
			d.charge(1)
			w := row[i]
			lw := c.VOff[w+1] - c.VOff[w]
			j := i - 1
			for ; j >= 0 && c.VOff[row[j]+1]-c.VOff[row[j]] > lw; j-- {
				row[j+1] = row[j]
			}
			row[j+1] = w
		}
	}
}

// charge accrues n elementary operations and hands them to the
// checkpoint once the accumulator crosses the threshold.  The common
// case is a plain add-and-compare, so the indirect call is off the hot
// path.
func (d *Detector) charge(n int) {
	d.ops += n
	if d.ops >= peelCheckEvery {
		d.flush()
	}
}

// flush hands the accrued operations to the checkpoint.  It stays out
// of line so that charge fits the inliner's budget.
//
//go:noinline
func (d *Detector) flush() {
	n := d.ops
	d.ops = 0
	if d.checkpoint != nil {
		d.checkpoint(n)
	}
}

// NonMaximal reports whether hyperedge f is contained in another
// alive hyperedge g over the alive vertices of the snapshot, with the
// reduction tie-break: d(g) > d(f), or d(g) == d(f) and g < f, so the
// lowest-ID copy of an equal-set family is the maximal one.  An empty
// or dead f (eDeg[f] == 0) is reported maximal; callers treat
// emptiness on their own.
func (d *Detector) NonMaximal(f int32, vAlive []bool, eDeg []int32) bool {
	return d.nonMaximal(f, vAlive, eDeg, nil, 0)
}

// nonMaximal is NonMaximal with the CSR peeler's shrunk filter: when
// shrunk is non-nil, candidates with shrunk[g] == dseq are skipped.
// That is sound only right after a single vertex deletion — a
// containment newly created by deleting v needs v ∈ f and v ∉ g, so a
// g that shrank in the same deletion cannot newly contain f.
//
// Any g containing f is incident to every alive member of f.  The
// check takes the first nw = min(d(f), maxWitnesses) alive members of
// f's rarest-first row as witnesses and intersects their vertex rows
// with generation stamps: the first row is stamped, each further row
// advances the stamp of the hyperedges already carrying the previous
// generation, and the last row collects the hyperedges that carry it —
// the candidates incident to every witness.  The passes are
// branch-free scans of the shortest rows f has, and a pass that leaves
// f alone ends the check at once.  A candidate then meets the
// tie-break, whose degree comparison also skips dead hyperedges (eDeg
// zero) without a liveness load, and for d(f) > nw a first-miss member
// probe: f's remaining alive members, rarest first, are searched in
// g's ID-sorted row, returning at the first one that is missing.  The
// witnesses leave few candidates and most fail their first probe, so
// a check costs the witness passes plus a few probes instead of a
// count over every candidate's row.
//
// Charging is the peeler's long-standing unit: the first witness's
// row length once on entry and, for d(f) ≥ 2, once more for the
// candidate enumeration.
//
//hyperplexvet:hotpath
func (d *Detector) nonMaximal(f int32, vAlive []bool, eDeg, shrunk []int32, dseq int32) bool {
	df := eDeg[f]
	if df == 0 {
		return false
	}
	c := d.c
	mrow := d.mem[c.EOff[f]:c.EOff[f+1]]
	// eDeg[f] > 0 guarantees an alive member in mrow, and as many
	// alive members as eDeg[f] in total.
	i := 0
	for !vAlive[mrow[i]] {
		i++
	}
	row := c.VertexEdges(mrow[i])
	d.charge(len(row))
	if df == 1 {
		// Every candidate contains f's only alive member, so the
		// tie-break alone decides.
		for _, g := range row {
			if g == f || (shrunk != nil && shrunk[g] == dseq) {
				continue
			}
			if dg := eDeg[g]; dg > 1 || (dg == 1 && g < f) {
				return true
			}
		}
		return false
	}
	d.charge(len(row))

	nw := min(df, maxWitnesses)
	seq := d.nextSeq(nw - 1)
	estamp := d.estamp
	for _, g := range row {
		estamp[g] = seq
	}
	//hyperplexvet:ignore budgettick bounded: at most maxWitnesses-2 passes over one vertex row each, charged with the check
	for k := int32(2); k < nw; k++ {
		i++
		for !vAlive[mrow[i]] {
			i++
		}
		prev := seq
		seq++
		live := int32(0)
		for _, g := range c.VertexEdges(mrow[i]) {
			x := estamp[g]
			eq := isZero(x ^ prev)
			estamp[g] = x + eq
			live += eq
		}
		if live == 1 {
			return false // f alone is incident to every witness so far
		}
	}
	i++
	for !vAlive[mrow[i]] {
		i++
	}
	cand, n := d.cand, int32(0)
	for _, g := range c.VertexEdges(mrow[i]) {
		cand[n] = g
		n += isZero(estamp[g] ^ seq)
	}

	rest := mrow[i+1:]
	eOff, eAdj := c.EOff, c.EAdj
	//hyperplexvet:ignore budgettick bounded: one pass over the candidates of the last witness row, charged with the check
	for _, g := range cand[:n] {
		if g == f || (shrunk != nil && shrunk[g] == dseq) {
			continue
		}
		if dg := eDeg[g]; dg < df || (dg == df && g > f) {
			continue
		}
		if df == nw || holdsAlive(eAdj[eOff[g]:eOff[g+1]], rest, vAlive, df-nw) {
			return true
		}
	}
	return false
}

// maxWitnesses caps the witness rows intersected per check.  Each
// further witness is one more pass over a short vertex row and removes
// most of the candidates that would otherwise each cost a
// binary-search probe.  On Table 1's fdpm37 four to six witnesses cut
// the peel about equally; four keeps the extra row fetches cheap on
// sparse instances, where the first two witnesses usually settle the
// check.
const maxWitnesses = 4

// isZero is 1 when x == 0 and 0 otherwise, without a branch: the
// witness passes test stamps of hyperedges in no particular pattern,
// which a conditional jump would mispredict.
func isZero(x int32) int32 {
	return int32((uint64(uint32(x)) - 1) >> 63)
}

// holdsAlive reports whether the ID-sorted row grow holds all need
// alive members of rest, probing them in rest's order and returning at
// the first miss; finding the last one ends the scan before any
// trailing dead members.
func holdsAlive(grow, rest []int32, vAlive []bool, need int32) bool {
	lo, hi := grow[0], grow[len(grow)-1]
	//hyperplexvet:ignore budgettick bounded: one probe per member of rest, each a binary search of one hyperedge row
	for _, w := range rest {
		if !vAlive[w] {
			continue
		}
		if w < lo || w > hi || !holds(grow, w) {
			return false
		}
		if need--; need == 0 {
			return true
		}
	}
	return false // fewer alive members than eDeg claims: not a consistent snapshot
}

// holds reports whether the ascending row contains w.  The lower-bound
// search steps branch-free (the sign of w - row[mid] masks the step),
// since the probes land in unrelated rows and a data-dependent branch
// per step would mispredict about half the time.
func holds(row []int32, w int32) bool {
	base, n := 0, len(row)
	for n > 1 {
		half := n >> 1
		base += half &^ ((int(w) - int(row[base+half])) >> 63)
		n -= half
	}
	return row[base] == w
}

// nextSeq reserves n consecutive stamp generations and returns the
// first, clearing the stamp array when the int32 space would wrap so
// stale stamps cannot alias.
func (d *Detector) nextSeq(n int32) int32 {
	if d.seq > 1<<31-1-n {
		d.seq = 0
		clear(d.estamp)
	}
	first := d.seq + 1
	d.seq += n
	return first
}
