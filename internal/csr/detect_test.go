// Tests for the shared containment detector: a table of the corner
// cases of the |f ∩ g| = d(f) rule and a fuzz target, both pinned to
// a naive pairwise containment oracle over explicit alive snapshots.
// Internal test package, so the stamp generation can be forced to the
// int32 wraparound.
package csr

import (
	"slices"
	"testing"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// snapshot is an alive state of a CSR in the detector's contract: a
// dead hyperedge has eDeg 0, an alive one the count of its alive
// members.
type snapshot struct {
	vAlive []bool
	eDeg   []int32
}

// newSnapshot derives the contract's eDeg from vertex liveness and a
// set of dead hyperedges.
func newSnapshot(c *CSR, deadV, deadE []int32) snapshot {
	s := snapshot{vAlive: make([]bool, c.NumVertices()), eDeg: make([]int32, c.NumEdges())}
	for v := range s.vAlive {
		s.vAlive[v] = !slices.Contains(deadV, int32(v))
	}
	for f := range s.eDeg {
		if slices.Contains(deadE, int32(f)) {
			continue
		}
		for _, v := range c.EdgeVertices(int32(f)) {
			if s.vAlive[v] {
				s.eDeg[f]++
			}
		}
	}
	return s
}

// naiveNonMaximal is the oracle: f is non-maximal when some other
// alive g holds every alive member of f and wins the (degree, ID)
// tie-break.  It compares member lists pairwise and shares no code
// with the detector.
func naiveNonMaximal(c *CSR, s snapshot, f int32) bool {
	df := s.eDeg[f]
	if df == 0 {
		return false
	}
	for g := int32(0); int(g) < c.NumEdges(); g++ {
		dg := s.eDeg[g]
		if g == f || dg == 0 || dg < df || (dg == df && g > f) {
			continue
		}
		contained := true
		for _, v := range c.EdgeVertices(f) {
			if s.vAlive[v] && !slices.Contains(c.EdgeVertices(g), v) {
				contained = false
				break
			}
		}
		if contained {
			return true
		}
	}
	return false
}

func mustCSR(t testing.TB, nv int, edges [][]int32) *CSR {
	t.Helper()
	h, err := hypergraph.FromEdgeSets(nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return FromH(h)
}

// checkAll runs the detector over every hyperedge of the snapshot, one
// detector for all checks (so stale stamps of earlier checks are in
// play), and compares each answer with the oracle and with a fork.
func checkAll(t *testing.T, d *Detector, s snapshot) {
	t.Helper()
	fork := d.Fork()
	for f := int32(0); int(f) < d.c.NumEdges(); f++ {
		want := naiveNonMaximal(d.c, s, f)
		if got := d.NonMaximal(f, s.vAlive, s.eDeg); got != want {
			t.Fatalf("NonMaximal(%d) = %t, oracle says %t (eDeg %v, vAlive %v)", f, got, want, s.eDeg, s.vAlive)
		}
		if got := fork.NonMaximal(f, s.vAlive, s.eDeg); got != want {
			t.Fatalf("fork NonMaximal(%d) = %t, oracle says %t", f, got, want)
		}
	}
}

func TestNonMaximalTable(t *testing.T) {
	wide := make([]int32, 12)
	for i := range wide {
		wide[i] = int32(i)
	}
	cases := []struct {
		name         string
		nv           int
		edges        [][]int32
		deadV, deadE []int32
		want         []bool // per hyperedge
	}{
		{"d1-in-larger", 2, [][]int32{{0}, {0, 1}}, nil, nil, []bool{true, false}},
		{"d1-tie-lower-id", 1, [][]int32{{0}, {0}}, nil, nil, []bool{false, true}},
		{"d1-induced", 3, [][]int32{{0, 2}, {0, 1}}, []int32{1, 2}, nil, []bool{false, true}},
		{"d1-dead-candidate", 2, [][]int32{{0}, {0, 1}}, nil, []int32{1}, []bool{false, false}},
		{"d2-in-larger", 3, [][]int32{{0, 1}, {0, 1, 2}}, nil, nil, []bool{true, false}},
		{"d2-witnesses-split", 3, [][]int32{{0, 1}, {0, 2}, {1, 2}}, nil, nil, []bool{false, false, false}},
		{"equal-set-family", 3, [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}, nil, nil, []bool{false, true, true}},
		{"equal-induced-sets", 4, [][]int32{{0, 1, 2, 3}, {0, 1, 2}}, []int32{3}, nil, []bool{false, true}},
		{"dead-candidate", 4, [][]int32{{0, 1, 2}, {0, 1, 2, 3}}, nil, []int32{1}, []bool{false, false}},
		{"empty-edge", 2, [][]int32{{}, {0, 1}}, nil, nil, []bool{false, false}},
		{"all-members-dead", 2, [][]int32{{0, 1}, {0, 1}}, []int32{0, 1}, nil, []bool{false, false}},
		{"first-miss-last-member", 12, [][]int32{wide, wide[:11], append(slices.Clone(wide[:10]), 11)}, nil, nil, []bool{false, true, true}},
		{"probe-miss", 13, [][]int32{wide, append(slices.Clone(wide[:11]), 12)}, nil, nil, []bool{false, false}},
		{"probe-after-dead-member", 13, [][]int32{wide, append(slices.Clone(wide[:11]), 12)}, []int32{11}, nil, []bool{true, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCSR(t, tc.nv, tc.edges)
			s := newSnapshot(c, tc.deadV, tc.deadE)
			d := NewDetector(c)
			for f, want := range tc.want {
				if oracle := naiveNonMaximal(c, s, int32(f)); oracle != want {
					t.Fatalf("table entry for %d says %t, oracle %t", f, want, oracle)
				}
				if got := d.NonMaximal(int32(f), s.vAlive, s.eDeg); got != want {
					t.Errorf("NonMaximal(%d) = %t, want %t", f, got, want)
				}
			}
		})
	}
}

// TestNonMaximalStampWraparound forces the stamp generation to the
// int32 limit with stale low generations left in the scratch: without
// the clear on wraparound, the restarted generations would alias them
// and turn hyperedges that miss a witness into candidates.
func TestNonMaximalStampWraparound(t *testing.T) {
	// Every hyperedge is maximal, and each shares exactly one witness
	// with some other hyperedge, which stale stamps would promote.
	c := mustCSR(t, 6, [][]int32{{0, 1}, {1, 2, 3}, {0, 4}, {2, 3, 4}, {0, 1, 2, 3, 4, 5}, {3, 5}})
	s := newSnapshot(c, []int32{5}, []int32{4})
	for _, back := range []int32{0, 1, 2, 3, 7} {
		for stale := int32(1); stale <= 4; stale++ {
			d := NewDetector(c)
			for g := range d.estamp {
				d.estamp[g] = stale
			}
			d.seq = 1<<31 - 1 - back
			checkAll(t, d, s)
			checkAll(t, d, s)
			if d.seq > 64 {
				t.Fatalf("back %d: generation %d did not wrap", back, d.seq)
			}
		}
	}
}

// decodeInstance turns fuzz bytes into a small CSR and snapshot:
// vertex and hyperedge counts, member lists, dead vertices and dead
// hyperedges, plus a flag forcing the stamp generation near the int32
// wraparound.  Exhausted input reads as zero bytes.
func decodeInstance(t *testing.T, data []byte) (*Detector, snapshot) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nv := 1 + next()%24
	ne := 1 + next()%20
	wrap := next()
	edges := make([][]int32, ne)
	for f := range edges {
		size := next() % 13
		for j := 0; j < size; j++ {
			edges[f] = append(edges[f], int32(next()%nv))
		}
	}
	var deadV, deadE []int32
	for v := 0; v < nv; v++ {
		if next()%4 == 1 {
			deadV = append(deadV, int32(v))
		}
	}
	for f := 0; f < ne; f++ {
		if next()%5 == 1 {
			deadE = append(deadE, int32(f))
		}
	}
	c := mustCSR(t, nv, edges)
	d := NewDetector(c)
	if wrap%2 == 1 {
		for g := range d.estamp {
			d.estamp[g] = int32(1 + g%3)
		}
		d.seq = 1<<31 - 1 - int32(wrap%8)
	}
	return d, newSnapshot(c, deadV, deadE)
}

// FuzzNonMaximal pins the detector to the pairwise oracle on random
// instances and alive snapshots; the committed corpus seeds the corner
// cases of the table test.
func FuzzNonMaximal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 1, 0, 2, 0, 1, 3, 0, 1, 2})
	f.Add([]byte{5, 4, 1, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 2, 3, 4, 0, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, s := decodeInstance(t, data)
		checkAll(t, d, s)
	})
}

// insertionOrder is the reference witness order: the CSR row sorted by
// ascending static vertex row length with a plain insertion sort,
// which keeps equal lengths in ID order.
func insertionOrder(c *CSR, f int32) []int32 {
	row := slices.Clone(c.EdgeVertices(f))
	for i := 1; i < len(row); i++ {
		w := row[i]
		j := i - 1
		for ; j >= 0 && c.VertexDegree(row[j]) > c.VertexDegree(w); j-- {
			row[j+1] = row[j]
		}
		row[j+1] = w
	}
	return row
}

// TestSortWitnessesOrder pins the witness rows to the insertion order
// on both sides of insertionSortMax: random rows of mixed lengths, and
// a long worst-case row whose members arrive in descending row length
// (every insertion would shift to the front).
func TestSortWitnessesOrder(t *testing.T) {
	rng := xrand.New(0x5027)
	const nv = 900
	var edges [][]int32
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(2*insertionSortMax)
		seen := map[int32]bool{}
		var row []int32
		for len(row) < n {
			if v := int32(rng.Intn(nv)); !seen[v] {
				seen[v] = true
				row = append(row, v)
			}
		}
		slices.Sort(row)
		edges = append(edges, row)
	}
	// Vertex v of the long row gets degree nv-v from singleton edges
	// padding it out, so ascending IDs mean descending row lengths.
	long := make([]int32, 0, nv)
	for v := int32(0); v < nv; v++ {
		long = append(long, v)
		for k := int32(0); k < (nv-v)/64; k++ {
			edges = append(edges, []int32{v})
		}
	}
	edges = append(edges, long)
	c := mustCSR(t, nv, edges)
	d := NewDetector(c)
	longRows := 0
	for f := int32(0); f < int32(c.NumEdges()); f++ {
		got := d.mem[c.EOff[f]:c.EOff[f+1]]
		if len(got) > insertionSortMax {
			longRows++
		}
		if want := insertionOrder(c, f); !slices.Equal(got, want) {
			t.Fatalf("hyperedge %d (%d members): witness row %v, want %v", f, len(got), got, want)
		}
	}
	if longRows < 2 {
		t.Fatalf("only %d rows longer than %d; the stable-sort path is untested", longRows, insertionSortMax)
	}
}
