package scan

import (
	"math/rand"
	"testing"

	"pdtl/internal/graph"
)

// TestCountKernelsAgreeWithIntersect holds every kernel's count-only path
// to its listing path: identical count AND identical steps on the same
// operands (the two walk the same comparisons, which keeps CmpOps
// comparable between counting and listing runs).
func TestCountKernelsAgreeWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		la, lb := rng.Intn(400), rng.Intn(400)
		switch trial % 4 {
		case 1:
			la = rng.Intn(5)
		case 2:
			lb = rng.Intn(5)
		case 3:
			la, lb = rng.Intn(3), 100+rng.Intn(300)
		}
		universe := 1 + rng.Intn(800)
		if la > universe {
			la = universe
		}
		if lb > universe {
			lb = universe
		}
		a := sortedSet(rng, la, universe)
		b := sortedSet(rng, lb, universe)
		for _, k := range []Kernel{Merge, Gallop, Adaptive, Compressed, Cover, Mark} {
			var emitted uint64
			wantSteps := k.Intersect(a, b, func(graph.Vertex) { emitted++ })
			count, steps := k.(CountKernel).Count(a, b)
			if count != emitted {
				t.Fatalf("trial %d: %s Count = %d, Intersect emitted %d", trial, k.Kind(), count, emitted)
			}
			if steps != wantSteps {
				t.Fatalf("trial %d: %s Count took %d steps, Intersect %d", trial, k.Kind(), steps, wantSteps)
			}
		}
	}
}

// denseList builds a list dense enough inside [base, base+span) that the
// encoder chooses bitmap segments; keep is the per-slot inclusion chance
// out of 4.
func denseList(rng *rand.Rand, base graph.Vertex, span, keep int) []graph.Vertex {
	var out []graph.Vertex
	for o := 0; o < span; o++ {
		if rng.Intn(4) < keep {
			out = append(out, base+graph.Vertex(o))
		}
	}
	return out
}

// TestCountCompressedMatchesListing drives CountCompressed over random
// mixed (varint and bitmap) compressed lists and checks count, skipped,
// and error behavior against IntersectCompressed on the same operands.
func TestCountCompressedMatchesListing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bk := Compressed.(BlockKernel)
	cbk := Compressed.(CountBlockKernel)
	ar := NewArena()
	var enc graph.ListEncoder
	scratch := make([]graph.Vertex, 0, graph.SegmentEntries)
	for trial := 0; trial < 300; trial++ {
		var a []graph.Vertex
		if trial%2 == 0 {
			a = denseList(rng, graph.Vertex(rng.Intn(500)), 300+rng.Intn(900), 3)
		} else {
			ua := 700 + rng.Intn(2000)
			a = sortedSet(rng, rng.Intn(700), ua)
		}
		ub := 300 + rng.Intn(2000)
		b := sortedSet(rng, rng.Intn(300), ub)
		cl := graph.CompressedList{Degree: len(a), Data: enc.Append(nil, a)}
		var emitted uint64
		_, wantSkipped, err := bk.IntersectCompressed(cl, b, scratch, func(graph.Vertex) { emitted++ })
		if err != nil {
			t.Fatalf("trial %d: IntersectCompressed: %v", trial, err)
		}
		count, _, skipped, err := cbk.CountCompressed(cl, b, ar)
		if err != nil {
			t.Fatalf("trial %d: CountCompressed: %v", trial, err)
		}
		if count != emitted {
			t.Fatalf("trial %d: CountCompressed = %d, IntersectCompressed emitted %d (|a|=%d |b|=%d)",
				trial, count, emitted, len(a), len(b))
		}
		if skipped != wantSkipped {
			t.Fatalf("trial %d: CountCompressed skipped %d segments, listing path %d", trial, skipped, wantSkipped)
		}
	}
}

// TestBitmapWordKernelEquivalence pins the word-parallel bitmap counting
// against mergeKernel on segment-boundary-straddling operands: a's dense
// run spans multiple 256-entry segments (bitmap payloads with partial tail
// words), and b is chosen to hit every regime — a consecutive run
// straddling a segment boundary (masked-popcount path on both sides),
// sparse scattered probes, single elements at exact segment edges, and
// fully disjoint ranges.
func TestBitmapWordKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cbk := Compressed.(CountBlockKernel)
	ar := NewArena()
	var enc graph.ListEncoder

	// ~900 values dense in [1000, 2100): multiple full bitmap segments
	// whose spans straddle word boundaries.
	a := denseList(rng, 1000, 1100, 3)
	cl := graph.CompressedList{Degree: len(a), Data: enc.Append(nil, a)}

	run := func(lo, n int) []graph.Vertex { // consecutive run [lo, lo+n)
		out := make([]graph.Vertex, n)
		for i := range out {
			out[i] = graph.Vertex(lo + i)
		}
		return out
	}
	cases := [][]graph.Vertex{
		run(990, 400),                // dense run straddling the first segment boundary
		run(int(a[250])-3, 600),      // run centered on a mid-list segment edge
		run(int(a[len(a)-1])-10, 40), // run off the tail
		{a[0]}, {a[len(a)-1]},        // exact endpoints
		{a[0] - 1, a[len(a)-1] + 1},       // misses on both sides
		run(0, 50),                        // fully below
		run(int(a[len(a)-1])+100, 50),     // fully above
		sortedSet(rng, 200, 3000),         // sparse scattered probes
		append(run(1020, 64), 2090, 2095), /* run + outliers breaks the consecutive test */
	}
	for ci, b := range cases {
		wantCount, _ := mergeKernel{}.Count(a, b)
		wordsBefore := ar.WordOps
		count, _, _, err := cbk.CountCompressed(cl, b, ar)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if count != wantCount {
			t.Fatalf("case %d: word kernel counted %d, merge %d (b=%v…)", ci, count, wantCount, b[:min(len(b), 8)])
		}
		// Word ops must advance whenever some b element lands inside a's
		// value hull (a segment then survives the header tests and pays
		// payload work); operands that merely bracket the hull are
		// header-skipped wholesale, legitimately word-free.
		anyIn := false
		for _, y := range b {
			if y >= a[0] && y <= a[len(a)-1] {
				anyIn = true
				break
			}
		}
		if anyIn && ar.WordOps == wordsBefore {
			t.Errorf("case %d: in-range operands advanced no word ops", ci)
		}
	}
}

// TestBlockKernelSharedScratch is the scratch-ownership regression test:
// one scratch buffer shared across back-to-back IntersectCompressed calls
// for two different vertices must give each call the same result as a
// fresh buffer would — the kernel may not depend on (or be corrupted by)
// contents surviving between calls. An undersized buffer (nil) must also
// work: the contract replaces it rather than growing the caller's array.
func TestBlockKernelSharedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bk := Compressed.(BlockKernel)
	var enc graph.ListEncoder

	a1 := sortedSet(rng, 600, 2000)
	a2 := denseList(rng, 300, 900, 3)
	cl1 := graph.CompressedList{Degree: len(a1), Data: enc.Append(nil, a1)}
	cl2 := graph.CompressedList{Degree: len(a2), Data: enc.Append(nil, a2)}
	b1 := sortedSet(rng, 250, 2000)
	b2 := sortedSet(rng, 250, 1500)

	gather := func(cl graph.CompressedList, b, scratch []graph.Vertex) []graph.Vertex {
		var out []graph.Vertex
		if _, _, err := bk.IntersectCompressed(cl, b, scratch, func(w graph.Vertex) {
			out = append(out, w)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want1 := gather(cl1, b1, make([]graph.Vertex, 0, graph.SegmentEntries))
	want2 := gather(cl2, b2, make([]graph.Vertex, 0, graph.SegmentEntries))
	if len(want1) == 0 || len(want2) == 0 {
		t.Fatal("degenerate fixtures: empty intersections prove nothing")
	}

	for _, scratch := range [][]graph.Vertex{
		make([]graph.Vertex, 0, graph.SegmentEntries), // contract-sized, shared
		nil,                        // undersized: the kernel must substitute its own
		make([]graph.Vertex, 0, 3), // undersized but non-nil
	} {
		got1 := gather(cl1, b1, scratch)
		got2 := gather(cl2, b2, scratch) // same buffer, second vertex
		got1again := gather(cl1, b1, scratch)
		for i, pair := range [][2][]graph.Vertex{{want1, got1}, {want2, got2}, {want1, got1again}} {
			w, g := pair[0], pair[1]
			if len(w) != len(g) {
				t.Fatalf("cap %d call %d: %d matches, want %d", cap(scratch), i, len(g), len(w))
			}
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("cap %d call %d element %d: %d, want %d", cap(scratch), i, j, g[j], w[j])
				}
			}
		}
	}
}

// TestCountCompressedZeroAlloc pins the arena promise: with a warmed-up
// arena, the count-only compressed path allocates nothing per
// intersection.
func TestCountCompressedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cbk := Compressed.(CountBlockKernel)
	ar := NewArena()
	var enc graph.ListEncoder
	a := denseList(rng, 100, 1200, 3)
	cl := graph.CompressedList{Degree: len(a), Data: enc.Append(nil, a)}
	b := sortedSet(rng, 400, 1500)
	if _, _, _, err := cbk.CountCompressed(cl, b, ar); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := cbk.CountCompressed(cl, b, ar); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CountCompressed allocates %v objects per call, want 0", allocs)
	}
	// The plain count kernels are trivially allocation-free too.
	for _, k := range []Kernel{Merge, Gallop, Adaptive, Compressed, Cover, Mark} {
		ck := k.(CountKernel)
		allocs := testing.AllocsPerRun(100, func() { ck.Count(a, b) })
		if allocs != 0 {
			t.Errorf("%s.Count allocates %v objects per call, want 0", k.Kind(), allocs)
		}
	}
}
