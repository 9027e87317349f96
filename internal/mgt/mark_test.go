package mgt

import (
	"context"
	"slices"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/scan"
)

// markBoundaryIDs are the vertex IDs at the edges of the mark bitset's
// words: the first and last vertex, and both sides of the 64-bit word
// boundaries at 64 and 128.
var markBoundaryIDs = []graph.Vertex{0, 63, 64, 127, 128, 199}

// markDisk builds a 200-vertex oriented store whose lists hold every ID in
// markBoundaryIDs: a clique over them (every pair closes triangles through
// the boundary words) on top of a random graph that spreads the rest.
func markDisk(t *testing.T) (*graph.Disk, uint64) {
	t.Helper()
	const n = 200
	er, err := gen.ErdosRenyi(n, 1400, 29)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for _, v := range er.Neighbors(graph.Vertex(u)) {
			if graph.Vertex(u) < v {
				edges = append(edges, graph.Edge{U: graph.Vertex(u), V: v})
			}
		}
	}
	for i, a := range markBoundaryIDs {
		for _, b := range markBoundaryIDs[i+1:] {
			edges = append(edges, graph.Edge{U: a, V: b})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	oriented, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range markBoundaryIDs {
		found := false
		for u := 0; u < n && !found; u++ {
			_, found = slices.BinarySearch(oriented.Neighbors(graph.Vertex(u)), id)
		}
		if !found {
			t.Fatalf("fixture: no oriented list holds vertex %d", id)
		}
	}
	return d, baseline.Forward(g)
}

// recordSink records the triangle stream in order.
type recordSink struct{ tris [][3]graph.Vertex }

func (s *recordSink) Triangle(u, v, w graph.Vertex) {
	s.tris = append(s.tris, [3]graph.Vertex{u, v, w})
}

// TestMarkBitsetClearedEveryPass runs the mark kernel one pass at a time
// (each RunRange over one window's worth of edges is one pass) over lists
// holding the bitset's boundary IDs, counting and listing. After every
// pass the bitset must be all zero, the triangles must add up to the
// baseline, and the listing must equal the merge kernel's in order.
func TestMarkBitsetClearedEveryPass(t *testing.T) {
	d, want := markDisk(t)
	total := d.Meta.AdjEntries
	for _, m := range []int{7, 33, int(total)} {
		merge := &recordSink{}
		if _, err := Run(context.Background(), d, Config{MemEdges: m, Kernel: scan.Merge, Sink: merge}); err != nil {
			t.Fatal(err)
		}
		for _, listing := range []bool{false, true} {
			r, err := NewRunner(d, Config{MemEdges: m, Kernel: scan.Mark})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.marks) != (d.NumVertices()+63)/64 {
				t.Fatalf("M=%d: bitset has %d words for %d vertices", m, len(r.marks), d.NumVertices())
			}
			rec := &recordSink{}
			var sink Sink
			if listing {
				sink = rec
			}
			var found uint64
			for lo := uint64(0); lo < total; lo += uint64(m) {
				hi := min(lo+uint64(m), total)
				st, err := r.RunRange(context.Background(), balance.Range{Lo: lo, Hi: hi}, sink)
				if err != nil {
					t.Fatal(err)
				}
				if st.Passes != 1 {
					t.Fatalf("M=%d range [%d,%d): %d passes, want 1", m, lo, hi, st.Passes)
				}
				found += st.Triangles
				for i, word := range r.marks {
					if word != 0 {
						t.Fatalf("M=%d listing=%v: after the pass over [%d,%d) bitset word %d = %#x", m, listing, lo, hi, i, word)
					}
				}
			}
			r.Close()
			if found != want {
				t.Errorf("M=%d listing=%v: %d triangles, want %d", m, listing, found, want)
			}
			if listing && !slices.Equal(rec.tris, merge.tris) {
				t.Errorf("M=%d: mark listing (%d triangles) differs from the merge listing (%d)", m, len(rec.tris), len(merge.tris))
			}
		}
	}
}

// TestMarkProbeZeroAlloc pins that a warmed runner's mark, probe and clear
// steps allocate nothing, with and without a sink, and leave the bitset
// clear.
func TestMarkProbeZeroAlloc(t *testing.T) {
	d, _ := markDisk(t)
	r, err := NewRunner(d, Config{MemEdges: int(d.Meta.AdjEntries), Kernel: scan.Mark})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// One full-range pass warms the runner and leaves its single window
	// loaded, so every cone vertex can be replayed against it.
	if _, err := r.RunRange(context.Background(), FullRange(d), nil); err != nil {
		t.Fatal(err)
	}
	oriented, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	var u graph.Vertex
	var nm, nmp []graph.Vertex
	for v := 0; v < d.NumVertices() && len(nmp) < 2; v++ {
		u, nm, nmp = graph.Vertex(v), oriented.Neighbors(graph.Vertex(v)), nmp[:0]
		for _, x := range nm {
			if x >= r.vlow && x <= r.vhigh && r.ind[x-r.vlow].len > 0 {
				nmp = append(nmp, x)
			}
		}
	}
	if len(nmp) < 2 {
		t.Fatal("fixture: no cone vertex with two in-window out-neighbors")
	}
	for _, sink := range []Sink{nil, &CountSink{}} {
		r.sink = sink
		if allocs := testing.AllocsPerRun(100, func() { r.markProbe(u, nm, nmp) }); allocs != 0 {
			t.Errorf("markProbe (sink %T) allocates %v objects per cone vertex, want 0", sink, allocs)
		}
		for i, word := range r.marks {
			if word != 0 {
				t.Fatalf("bitset word %d = %#x after markProbe", i, word)
			}
		}
	}
	r.sink = nil
}
