package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/extsort"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// writeOriented writes g and its orientation under dir, returning the
// oriented base path.
func writeOriented(t *testing.T, dir string, g *graph.CSR, format graph.Format) string {
	t.Helper()
	src := filepath.Join(dir, "g")
	dst := src + ".oriented"
	if err := graph.WriteCSR(src, "g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := orient.OrientFormat(src, dst, 2, format); err != nil {
		t.Fatal(err)
	}
	return dst
}

// edgeSet tracks the reference graph as a set of canonical edges.
type edgeSet map[[2]graph.Vertex]bool

func canon(u, v graph.Vertex) [2]graph.Vertex {
	if u > v {
		u, v = v, u
	}
	return [2]graph.Vertex{u, v}
}

func setFromCSR(g *graph.CSR) edgeSet {
	s := edgeSet{}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			s[canon(graph.Vertex(u), v)] = true
		}
	}
	return s
}

// csr materializes the set as an undirected CSR.
func (s edgeSet) csr(t *testing.T) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	n := 1
	for e := range s {
		edges = append(edges, graph.Edge{U: uint32(e[0]), V: uint32(e[1])})
		if int(e[1])+1 > n {
			n = int(e[1]) + 1
		}
		if int(e[0])+1 > n {
			n = int(e[0]) + 1
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomBatch builds a valid batch of size k against s, mutating s to the
// post-batch state. maxV bounds vertex ids (beyond the base graph to
// exercise vertex creation).
func randomBatch(rng *rand.Rand, s edgeSet, k, maxV int) []Update {
	var batch []Update
	for len(batch) < k {
		u := graph.Vertex(rng.Intn(maxV))
		v := graph.Vertex(rng.Intn(maxV))
		if u == v {
			continue
		}
		e := canon(u, v)
		if s[e] {
			if rng.Intn(3) == 0 { // delete a third of the time we hit a live edge
				batch = append(batch, Update{U: u, V: v, Del: true})
				delete(s, e)
			}
		} else {
			batch = append(batch, Update{U: u, V: v})
			s[e] = true
		}
	}
	return batch
}

func countLive(t *testing.T, g *Graph, opt core.Options) uint64 {
	t.Helper()
	res, err := g.Count(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Triangles
}

func TestLiveChurnCrosscheck(t *testing.T) {
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		t.Run(string(format), func(t *testing.T) {
			g0, err := gen.PowerLaw(200, 1500, 2.2, 5)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			base := writeOriented(t, dir, g0, format)
			lg, err := Open(base, Config{Dir: dir, Name: "churn", StoreFormat: format, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()

			ref := setFromCSR(g0)
			if got, want := countLive(t, lg, core.Options{Workers: 2}), baseline.Forward(g0); got != want {
				t.Fatalf("pre-churn count = %d want %d", got, want)
			}

			rng := rand.New(rand.NewSource(17))
			for round := 0; round < 12; round++ {
				batch := randomBatch(rng, ref, 40, 220)
				if err := lg.ApplyBatch(batch); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				want := baseline.Forward(ref.csr(t))
				got := countLive(t, lg, core.Options{Workers: 2})
				if got != want {
					t.Fatalf("round %d: live count = %d want %d", round, got, want)
				}
				if est, exact := lg.Estimate(); !exact || uint64(est+0.5) != want {
					t.Fatalf("round %d: estimate = %v (exact=%v) want %d", round, est, exact, want)
				}
				if round == 5 {
					if err := lg.CompactNow(context.Background()); err != nil {
						t.Fatalf("compact: %v", err)
					}
					if st := lg.Stats(); st.Gen != 1 || st.DeltaEdges != 0 {
						t.Fatalf("post-compact stats: %+v", st)
					}
					got := countLive(t, lg, core.Options{Workers: 2, Sched: sched.Stealing})
					if got != want {
						t.Fatalf("post-compact count = %d want %d", got, want)
					}
				}
			}
			if st := lg.Stats(); st.Batches != 12 {
				t.Fatalf("batches = %d", st.Batches)
			}
			// Kernel sweep over the final live view (the delta overlay is
			// non-empty again after the post-compaction rounds): every
			// kernel's closure-free count path must agree with the baseline,
			// and its listing run must reproduce the first kernel's (the
			// paper's merge) per-sink listings in order.
			want := baseline.Forward(ref.csr(t))
			var refLists [][][3]graph.Vertex
			for _, kern := range scan.KernelKinds() {
				got := countLive(t, lg, core.Options{Workers: 2, Kernel: kern})
				if got != want {
					t.Fatalf("count-only kernel %s on live view = %d, want %d", kern, got, want)
				}
				sinks := make([]mgt.Sink, 2)
				lists := make([][][3]graph.Vertex, len(sinks))
				for i := range sinks {
					sinks[i] = mgt.FuncSink(func(u, v, w graph.Vertex) {
						lists[i] = append(lists[i], [3]graph.Vertex{u, v, w})
					})
				}
				listed := countLive(t, lg, core.Options{Workers: 2, Kernel: kern, Sinks: sinks})
				if listed != want {
					t.Fatalf("listing kernel %s on live view = %d, want %d", kern, listed, want)
				}
				if refLists == nil {
					refLists = lists
					continue
				}
				for i := range lists {
					if !slices.Equal(lists[i], refLists[i]) {
						t.Fatalf("listing kernel %s on live view: sink %d listing differs from %s's", kern, i, scan.KernelKinds()[0])
					}
				}
			}
			// The overlay serves decoded merged lists (it is not a
			// CompressedScan), so even over a compressed base store the
			// count-only run takes the plain pass and its vectorization
			// gauges stay zero — pin that so a future overlay that starts
			// serving encoded payloads shows up here.
			if format == graph.FormatCompressed {
				res, err := lg.Count(context.Background(), core.Options{Workers: 2, Kernel: scan.KernelCompressed})
				if err != nil {
					t.Fatal(err)
				}
				var wordOps uint64
				for _, w := range res.Workers {
					wordOps += w.Stats.WordOps
				}
				if wordOps != 0 {
					t.Errorf("live overlay run reported word_ops = %d; the decoded overlay should do no word-level work", wordOps)
				}
			}
		})
	}
}

func TestApplyBatchAtomicOnInvalid(t *testing.T) {
	g0, err := gen.ErdosRenyi(50, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "atomic"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	before := countLive(t, lg, core.Options{Workers: 1})

	// Find one present and one absent edge.
	ref := setFromCSR(g0)
	var present, absent [2]graph.Vertex
	for e := range ref {
		present = e
		break
	}
	for u := graph.Vertex(0); ; u++ {
		if !ref[canon(u, u+1)] {
			absent = canon(u, u+1)
			break
		}
	}

	// Valid prefix, invalid tail: nothing must be applied.
	bad := []Update{
		{U: absent[0], V: absent[1]},
		{U: present[0], V: present[1], Del: true},
		{U: present[0], V: present[1], Del: true}, // double delete → invalid
	}
	if err := lg.ApplyBatch(bad); err == nil {
		t.Fatal("want error for invalid batch")
	}
	if got := countLive(t, lg, core.Options{Workers: 1}); got != before {
		t.Fatalf("count after rejected batch = %d want %d", got, before)
	}
	if st := lg.Stats(); st.DeltaEdges != 0 || st.Batches != 0 {
		t.Fatalf("stats after rejected batch: %+v", st)
	}

	// Insert + delete of the same edge inside one batch is valid and nets
	// out.
	ok := []Update{
		{U: absent[0], V: absent[1]},
		{U: absent[0], V: absent[1], Del: true},
	}
	if err := lg.ApplyBatch(ok); err != nil {
		t.Fatal(err)
	}
	if st := lg.Stats(); st.DeltaEdges != 0 {
		t.Fatalf("self-cancelling batch left delta: %+v", st)
	}
}

func TestNewVerticesAndBaseDeletes(t *testing.T) {
	g0, err := gen.TriGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "nv"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ref := setFromCSR(g0)
	n := graph.Vertex(g0.NumVertices())

	// Attach a triangle fan on brand-new vertices, and delete every base
	// edge of vertex 0.
	var batch []Update
	for _, e := range [][2]graph.Vertex{{n, n + 1}, {n, n + 2}, {n + 1, n + 2}, {0, n}, {1, n}} {
		batch = append(batch, Update{U: e[0], V: e[1]})
		ref[canon(e[0], e[1])] = true
	}
	for _, v := range g0.Neighbors(0) {
		batch = append(batch, Update{U: 0, V: v, Del: true})
		delete(ref, canon(0, v))
	}
	if err := lg.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(ref.csr(t))
	if got := countLive(t, lg, core.Options{Workers: 2}); got != want {
		t.Fatalf("count = %d want %d", got, want)
	}
	if !lg.HasEdge(n, n+2) || lg.HasEdge(0, g0.Neighbors(0)[0]) {
		t.Fatal("HasEdge disagrees with applied batch")
	}

	// Compaction must survive the shape change (new vertices, emptied
	// vertex) and keep the count.
	if err := lg.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := countLive(t, lg, core.Options{Workers: 2}); got != want {
		t.Fatalf("post-compact count = %d want %d", got, want)
	}
}

// TestCompactionByteEquivalence pins the compaction determinism contract:
// the compacted snapshot is byte-for-byte the store a from-scratch
// external-sort build of the merged edge list produces.
func TestCompactionByteEquivalence(t *testing.T) {
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		t.Run(string(format), func(t *testing.T) {
			g0, err := gen.PowerLaw(150, 900, 2.0, 21)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			lg, err := Open(writeOriented(t, dir, g0, format), Config{Dir: dir, Name: "eq", StoreFormat: format})
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()

			ref := setFromCSR(g0)
			rng := rand.New(rand.NewSource(4))
			if err := lg.ApplyBatch(randomBatch(rng, ref, 120, 170)); err != nil {
				t.Fatal(err)
			}
			if err := lg.CompactNow(context.Background()); err != nil {
				t.Fatal(err)
			}

			// From-scratch build of the same edge set, same name.
			edgeFile := filepath.Join(dir, "ref.edges")
			f, err := os.Create(edgeFile)
			if err != nil {
				t.Fatal(err)
			}
			var rec [extsort.EdgeBytes]byte
			for e := range ref {
				binary.LittleEndian.PutUint32(rec[0:], uint32(e[0]))
				binary.LittleEndian.PutUint32(rec[4:], uint32(e[1]))
				if _, err := f.Write(rec[:]); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			refBase := filepath.Join(dir, "refstore")
			if err := extsort.BuildStoreFormat(context.Background(), edgeFile, refBase, "eq", core.DefaultMemEdges, format, nil); err != nil {
				t.Fatal(err)
			}

			snapBase := filepath.Join(dir, "eq.gen1")
			for _, suffix := range storeSuffixes(format) {
				want, err := os.ReadFile(refBase + suffix)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(snapBase + suffix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs from from-scratch build (%d vs %d bytes)", suffix, len(got), len(want))
				}
			}
		})
	}
}

func storeSuffixes(format graph.Format) []string {
	if format == graph.FormatCompressed {
		return []string{".meta", ".deg", ".cadj", ".cidx"}
	}
	return []string{".meta", ".deg", ".adj"}
}

// TestConcurrentChurnQueryCompact drives mutations, exact queries, and
// compactions concurrently (the -race CI job runs this package). Every
// query must observe the exact count of some state the mutator published
// between the query's start and end — views are immutable snapshots, so a
// torn read would surface as a count matching no state.
func TestConcurrentChurnQueryCompact(t *testing.T) {
	g0, err := gen.PowerLaw(120, 700, 2.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain),
		Config{Dir: dir, Name: "conc", CompactEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	// Precompute the batch sequence and the exact count after each batch.
	const rounds = 30
	ref := setFromCSR(g0)
	rng := rand.New(rand.NewSource(13))
	batches := make([][]Update, rounds)
	counts := make([]uint64, rounds+1)
	counts[0] = baseline.Forward(g0)
	for i := 0; i < rounds; i++ {
		batches[i] = randomBatch(rng, ref, 25, 140)
		counts[i+1] = baseline.Forward(ref.csr(t))
	}

	var applied atomic.Int64 // index into counts of the latest published state
	var wg sync.WaitGroup
	stop := make(chan struct{})
	mutatorDone := make(chan struct{})

	wg.Add(1)
	go func() { // mutator (auto-compaction fires via CompactEdges)
		defer wg.Done()
		defer close(mutatorDone)
		for i := 0; i < rounds; i++ {
			if err := lg.ApplyBatch(batches[i]); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			applied.Store(int64(i + 1))
		}
	}()

	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() { // queriers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := applied.Load()
				res, err := lg.Count(context.Background(), core.Options{Workers: 2})
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
				hi := applied.Load()
				ok := false
				for j := lo; j <= hi; j++ {
					if res.Triangles == counts[j] {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("count %d matches no state in [%d,%d]", res.Triangles, lo, hi)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // explicit compactor racing the auto one
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := lg.CompactNow(context.Background()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// Stop the queriers once the mutator finishes.
	<-mutatorDone
	close(stop)
	wg.Wait()

	if err := lg.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := countLive(t, lg, core.Options{Workers: 2}); got != counts[rounds] {
		t.Fatalf("final count = %d want %d", got, counts[rounds])
	}
	if st := lg.Stats(); st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
}

// TestEstimatorApproximate checks the bounded-memory regime: with a
// reservoir far smaller than the graph, the estimate lands within a loose
// relative band of the truth (deterministic seed, so no flake).
func TestEstimatorApproximate(t *testing.T) {
	g0, err := gen.PowerLaw(800, 12000, 2.0, 33)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(3000, 7)
	est.Seed(g0)
	if est.Exact() {
		t.Fatalf("reservoir of 3000 cannot be exact for %d edges", g0.NumEdges())
	}
	truth := float64(baseline.Forward(g0))
	got := est.Estimate()
	if got < truth*0.5 || got > truth*1.5 {
		t.Fatalf("estimate %.0f too far from truth %.0f", got, truth)
	}
}

// TestEstimatorDeletionPairing checks the fully-dynamic path: insert a
// stream, delete part of it, and verify the exact regime recovers when
// everything fits again.
func TestEstimatorDeletionPairing(t *testing.T) {
	g0, err := gen.ErdosRenyi(100, 1200, 2)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(1<<16, 1)
	est.Seed(g0)
	if !est.Exact() {
		t.Fatal("large reservoir should be exact")
	}
	want := float64(baseline.Forward(g0))
	if got := est.Estimate(); got != want {
		t.Fatalf("estimate %v want %v", got, want)
	}
	// Delete a vertex's whole neighborhood and check exactness tracks.
	ref := setFromCSR(g0)
	for _, v := range g0.Neighbors(7) {
		est.Delete(7, v)
		delete(ref, canon(7, v))
	}
	want = float64(baseline.Forward(ref.csr(t)))
	if got := est.Estimate(); got != want {
		t.Fatalf("post-delete estimate %v want %v", got, want)
	}
}

func TestOverlaySourceSegmentation(t *testing.T) {
	g0, err := gen.PowerLaw(100, 1200, 1.8, 12)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "seg"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ref := setFromCSR(g0)
	rng := rand.New(rand.NewSource(6))
	if err := lg.ApplyBatch(randomBatch(rng, ref, 60, 110)); err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(ref.csr(t))
	// Tiny MemEdges forces list segmentation and window re-reads through
	// the overlay's Scan and ReadEntries paths.
	if got := countLive(t, lg, core.Options{Workers: 3, MemEdges: 256}); got != want {
		t.Fatalf("segmented count = %d want %d", got, want)
	}
}

// TestOverlayScanWindowIsFullPass: the overlay ignores a pass's window —
// its merged lists differ from the base store's, whose bounds index does
// not describe them — which the scan.Handle contract allows: ScanWindow
// yields exactly Scan's stream for every window and segment cap.
func TestOverlayScanWindowIsFullPass(t *testing.T) {
	g0, err := gen.PowerLaw(100, 1200, 1.8, 12)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "win"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	rng := rand.New(rand.NewSource(6))
	if err := lg.ApplyBatch(randomBatch(rng, setFromCSR(g0), 60, 110)); err != nil {
		t.Fatal(err)
	}
	m, err := lg.currentView().merged()
	if err != nil {
		t.Fatal(err)
	}
	h, err := newOverlaySource(m, scan.Config{}).Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	type seg struct {
		u    graph.Vertex
		list []graph.Vertex
	}
	collect := func(sc scan.Scan, err error) []seg {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var out []seg
		for {
			u, list, ok := sc.Next()
			if !ok {
				break
			}
			out = append(out, seg{u, append([]graph.Vertex(nil), list...)})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	n := graph.Vertex(m.disk.NumVertices())
	for _, maxList := range []int{0, 3} {
		want := collect(h.Scan(maxList))
		for _, w := range [][2]graph.Vertex{{0, n - 1}, {n / 2, n / 2}, {n + 5, n + 5}, {1, n / 3}} {
			if got := collect(h.ScanWindow(maxList, w[0], w[1])); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxList=%d window %v: ScanWindow yielded %d segments, Scan %d — or different lists", maxList, w, len(got), len(want))
			}
		}
	}
}
