package scan

import (
	"math/rand"
	"sort"
	"testing"

	"pdtl/internal/graph"
)

// sortedSet builds a random strictly-increasing vertex list.
func sortedSet(rng *rand.Rand, n, universe int) []graph.Vertex {
	seen := make(map[graph.Vertex]bool, n)
	for len(seen) < n {
		seen[graph.Vertex(rng.Intn(universe))] = true
	}
	out := make([]graph.Vertex, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collect(k Kernel, a, b []graph.Vertex) []graph.Vertex {
	var out []graph.Vertex
	k.Intersect(a, b, func(w graph.Vertex) { out = append(out, w) })
	return out
}

// TestKernelsAgreeWithMerge checks that gallop and adaptive emit exactly
// the merge kernel's result — same elements, same (ascending) order — over
// random list pairs of wildly different length ratios, including the empty
// and disjoint cases.
func TestKernelsAgreeWithMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		la := rng.Intn(120)
		lb := rng.Intn(120)
		switch trial % 4 { // force skew in both directions
		case 1:
			la = rng.Intn(5)
		case 2:
			lb = rng.Intn(5)
		case 3:
			la, lb = rng.Intn(3), 60+rng.Intn(60)
		}
		universe := 1 + rng.Intn(200)
		if la > universe {
			la = universe
		}
		if lb > universe {
			lb = universe
		}
		a := sortedSet(rng, la, universe)
		b := sortedSet(rng, lb, universe)
		want := collect(Merge, a, b)
		for _, k := range []Kernel{Gallop, Adaptive, Compressed, Cover, Mark} {
			got := collect(k, a, b)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s found %d common, merge found %d (a=%v b=%v)",
					trial, k.Kind(), len(got), len(want), a, b)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s element %d = %d, merge = %d",
						trial, k.Kind(), i, got[i], want[i])
				}
			}
		}
		// The direct-on-compressed path must emit the same intersection.
		var enc graph.ListEncoder
		cl := graph.CompressedList{Degree: len(a), Data: enc.Append(nil, a)}
		scratch := make([]graph.Vertex, 0, graph.SegmentEntries)
		var got []graph.Vertex
		_, _, err := Compressed.(BlockKernel).IntersectCompressed(cl, b, scratch, func(w graph.Vertex) {
			got = append(got, w)
		})
		if err != nil {
			t.Fatalf("trial %d: IntersectCompressed: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: IntersectCompressed found %d common, merge found %d (a=%v b=%v)",
				trial, len(got), len(want), a, b)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: IntersectCompressed element %d = %d, merge = %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCompressedSkipsDisjointSegments pins the point of the header test: a
// compressed list whose segments all lie outside b's range is rejected
// without decoding a single payload.
func TestCompressedSkipsDisjointSegments(t *testing.T) {
	a := make([]graph.Vertex, 1000) // four segments, values 0..999
	for i := range a {
		a[i] = graph.Vertex(i)
	}
	var enc graph.ListEncoder
	cl := graph.CompressedList{Degree: len(a), Data: enc.Append(nil, a)}
	b := []graph.Vertex{5000, 6000}
	scratch := make([]graph.Vertex, 0, graph.SegmentEntries)
	steps, skipped, err := Compressed.(BlockKernel).IntersectCompressed(cl, b, scratch, func(graph.Vertex) {
		t.Fatal("emitted a match from disjoint operands")
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 4 {
		t.Errorf("skipped %d segments, want all 4", skipped)
	}
	if steps > 8 {
		t.Errorf("spent %d steps on fully disjoint operands, want ≤ 8 header tests", steps)
	}
	// Cover rejects the same pair in one step.
	if s := Cover.Intersect(a, b, func(graph.Vertex) { t.Fatal("cover emitted") }); s != 1 {
		t.Errorf("cover spent %d steps on disjoint operands, want 1", s)
	}
}

// TestGallopCheaperOnSkew checks the point of the gallop kernel: on badly
// skewed operands its step count must be far below the merge's, which
// walks the long list linearly.
func TestGallopCheaperOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := sortedSet(rng, 100000, 1<<22)
	short := sortedSet(rng, 16, 1<<22)
	none := func(graph.Vertex) {}
	mergeSteps := Merge.Intersect(short, long, none)
	gallopSteps := Gallop.Intersect(short, long, none)
	if gallopSteps*100 > mergeSteps {
		t.Errorf("gallop took %d steps vs merge %d; want ≥100× fewer on 16-vs-100000 skew",
			gallopSteps, mergeSteps)
	}
	adaptiveSteps := Adaptive.Intersect(short, long, none)
	if adaptiveSteps != gallopSteps {
		t.Errorf("adaptive took %d steps on skewed pair, want the gallop path's %d", adaptiveSteps, gallopSteps)
	}
	// Near-equal lengths must take the merge path.
	a := sortedSet(rng, 500, 4000)
	b := sortedSet(rng, 400, 4000)
	if got, want := Adaptive.Intersect(a, b, none), Merge.Intersect(a, b, none); got != want {
		t.Errorf("adaptive took %d steps on balanced pair, want the merge path's %d", got, want)
	}
}

func TestKernelEmptyOperands(t *testing.T) {
	a := []graph.Vertex{1, 2, 3}
	for _, k := range []Kernel{Merge, Gallop, Adaptive, Compressed, Cover, Mark} {
		if got := collect(k, nil, a); got != nil {
			t.Errorf("%s on empty a emitted %v", k.Kind(), got)
		}
		if got := collect(k, a, nil); got != nil {
			t.Errorf("%s on empty b emitted %v", k.Kind(), got)
		}
	}
}
