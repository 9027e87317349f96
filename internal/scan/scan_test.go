package scan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/orient"
)

// orientedStore writes g, orients it, and opens the oriented store.
func orientedStore(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.Orient(src, dst, 2); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// segment is one Next() yield, copied out of the reused buffer.
type segment struct {
	u    graph.Vertex
	list []graph.Vertex
}

// drain collects a full pass from one handle. Errors are reported with
// t.Error (not Fatal) so drain is safe to call from helper goroutines.
func drain(t testing.TB, h Handle, maxList int) []segment {
	t.Helper()
	sc, err := h.Scan(maxList)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer sc.Close()
	var segs []segment
	for {
		u, list, ok := sc.Next()
		if !ok {
			break
		}
		segs = append(segs, segment{u: u, list: append([]graph.Vertex(nil), list...)})
	}
	if err := sc.Err(); err != nil {
		t.Error(err)
		return nil
	}
	return segs
}

func sameSegments(t *testing.T, label string, got, want []segment) {
	t.Helper()
	if t.Failed() {
		return // a drain already reported the underlying failure
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].u != want[i].u || len(got[i].list) != len(want[i].list) {
			t.Fatalf("%s: segment %d = (%d, %d entries), want (%d, %d entries)",
				label, i, got[i].u, len(got[i].list), want[i].u, len(want[i].list))
		}
		for k := range got[i].list {
			if got[i].list[k] != want[i].list[k] {
				t.Fatalf("%s: segment %d entry %d = %d, want %d",
					label, i, k, got[i].list[k], want[i].list[k])
			}
		}
	}
}

func allKinds() []SourceKind { return []SourceKind{SourceBuffered, SourceShared, SourceMem} }

// TestSourcesYieldIdenticalStreams checks that every source reproduces the
// buffered (graph.Scanner) segment stream exactly, across segmentation
// caps — including caps that split the large lists of a skewed graph.
func TestSourcesYieldIdenticalStreams(t *testing.T) {
	g, err := gen.PowerLaw(300, 4000, 2.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	for _, maxList := range []int{0, 3, 17, 1 << 20} {
		ref, err := New(SourceBuffered, d, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rh, err := ref.Handle(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, rh, maxList)
		rh.Close()
		ref.Close()
		for _, kind := range allKinds() {
			src, err := New(kind, d, Config{})
			if err != nil {
				t.Fatal(err)
			}
			h, err := src.Handle(nil)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, h, maxList)
			h.Close()
			src.Close()
			sameSegments(t, string(kind), got, want)
		}
	}
}

// TestReadEntriesEquivalence checks random-access reads across sources.
func TestReadEntriesEquivalence(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 2500, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	total := d.Meta.AdjEntries
	rng := rand.New(rand.NewSource(1))

	type read struct {
		pos uint64
		n   int
	}
	var reads []read
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(200)
		if uint64(n) > total {
			n = int(total)
		}
		pos := uint64(rng.Int63n(int64(total) - int64(n) + 1))
		reads = append(reads, read{pos, n})
	}

	want := make(map[int][]graph.Vertex)
	for _, kind := range allKinds() {
		src, err := New(kind, d, Config{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := src.Handle(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, rd := range reads {
			dst := make([]graph.Vertex, rd.n)
			if err := h.ReadEntries(dst, rd.pos); err != nil {
				t.Fatalf("%s: read %d: %v", kind, i, err)
			}
			if kind == SourceBuffered {
				want[i] = dst
				continue
			}
			for k := range dst {
				if dst[k] != want[i][k] {
					t.Fatalf("%s: read %d entry %d = %d, want %d", kind, i, k, dst[k], want[i][k])
				}
			}
		}
		h.Close()
		src.Close()
	}
}

// TestSharedConcurrentPassesShareOneScan runs P concurrent subscribers for
// two passes each and checks (a) every subscriber sees the exact stream and
// (b) the broadcaster touched the disk exactly twice — rounds are
// deterministic when all handles are open up front.
func TestSharedConcurrentPassesShareOneScan(t *testing.T) {
	g, err := gen.PowerLaw(400, 6000, 2.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	srcCounter := ioacct.NewCounter(0)
	src, err := New(SourceShared, d, Config{Counter: srcCounter})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	refSrc, err := New(SourceBuffered, d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	refH, err := refSrc.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, refH, 64)
	refH.Close()
	refSrc.Close()

	const P = 4
	const passes = 2
	handles := make([]Handle, P)
	for i := range handles {
		if handles[i], err = src.Handle(nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]segment, P)
	var wg sync.WaitGroup
	for i := 0; i < P; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer handles[i].Close()
			for p := 0; p < passes; p++ {
				got[i] = drain(t, handles[i], 64)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < P; i++ {
		sameSegments(t, "subscriber", got[i], want)
	}
	if gotBytes, wantBytes := srcCounter.Snapshot().BytesRead, int64(passes)*d.AdjBytes(); gotBytes != wantBytes {
		t.Errorf("broadcaster read %d bytes, want exactly %d (one physical scan per round)", gotBytes, wantBytes)
	}
}

// TestSharedScanCloseMidPassDoesNotStallOthers abandons one subscription
// early; the other subscriber must still complete its pass.
func TestSharedScanCloseMidPassDoesNotStallOthers(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	src, err := New(SourceShared, d, Config{BufBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	h1, err := src.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := src.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer h2.Close()
		drain(t, h2, 0)
	}()
	sc, err := h1.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	sc.Next() // consume one yield, then abandon the pass
	sc.Close()
	h1.Close()
	<-done
}

// TestUnalignedBufBytes: block sizes that are not a multiple of the entry
// size must be rounded, not allowed to split entries across blocks (the
// mem preload used to panic on this).
func TestUnalignedBufBytes(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	var want []segment
	for _, kind := range allKinds() {
		src, err := New(kind, d, Config{BufBytes: 4097})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		h, err := src.Handle(nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got := drain(t, h, 11)
		h.Close()
		src.Close()
		if want == nil {
			want = got
			continue
		}
		sameSegments(t, string(kind), got, want)
	}
}

func TestParseSource(t *testing.T) {
	for in, want := range map[string]SourceKind{
		"": SourceAuto, "auto": SourceAuto, "buffered": SourceBuffered,
		"shared": SourceShared, "mem": SourceMem,
	} {
		got, err := ParseSource(in)
		if err != nil || got != want {
			t.Errorf("ParseSource(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSource("mmap"); err == nil {
		t.Error("ParseSource must reject unknown kinds")
	}
	if got := SourceAuto.Resolve(4); got != SourceShared {
		t.Errorf("auto at P=4 = %v, want shared", got)
	}
	if got := SourceAuto.Resolve(1); got != SourceBuffered {
		t.Errorf("auto at P=1 = %v, want buffered", got)
	}
	if got := SourceMem.Resolve(8); got != SourceMem {
		t.Errorf("concrete kind must pass through Resolve, got %v", got)
	}
}

func TestParseKernel(t *testing.T) {
	for in, want := range map[string]KernelKind{
		"": KernelMerge, "merge": KernelMerge, "gallop": KernelGallop, "adaptive": KernelAdaptive,
	} {
		got, err := ParseKernel(in)
		if err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKernel("simd"); err == nil {
		t.Error("ParseKernel must reject unknown kinds")
	}
}

// drainWindow collects a windowed pass from one handle.
func drainWindow(t testing.TB, h Handle, maxList int, lo, hi graph.Vertex) []segment {
	t.Helper()
	sc, err := h.ScanWindow(maxList, lo, hi)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer sc.Close()
	var segs []segment
	for {
		u, list, ok := sc.Next()
		if !ok {
			break
		}
		segs = append(segs, segment{u: u, list: append([]graph.Vertex(nil), list...)})
	}
	if err := sc.Err(); err != nil {
		t.Error(err)
		return nil
	}
	return segs
}

// windowFilter is the windowed stream the disk sources must produce: the
// full stream minus every vertex whose list's [first, last] interval misses
// [lo, hi] (zero-degree vertices included), unless the window spans every
// vertex, in which case nothing is left out.
func windowFilter(d *graph.Disk, full []segment, lo, hi graph.Vertex) []segment {
	if lo == 0 && int(hi) >= d.NumVertices()-1 {
		return full
	}
	first := map[graph.Vertex]graph.Vertex{}
	last := map[graph.Vertex]graph.Vertex{}
	for _, s := range full {
		if len(s.list) == 0 {
			continue
		}
		if _, ok := first[s.u]; !ok {
			first[s.u] = s.list[0]
		}
		last[s.u] = s.list[len(s.list)-1]
	}
	var out []segment
	for _, s := range full {
		f, ok := first[s.u]
		if ok && f <= hi && last[s.u] >= lo {
			out = append(out, s)
		}
	}
	return out
}

// compressedCopy converts the plain store d into a compressed one.
func compressedCopy(t testing.TB, d *graph.Disk) *graph.Disk {
	t.Helper()
	cbase := d.Base + ".c"
	if err := graph.ConvertStore(d.Base, cbase, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	cd, err := graph.Open(cbase)
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

// TestScanWindowContract holds every disk-backed source, over both store
// formats, to the ScanWindow contract: for random, empty, and full windows
// — with lists split by maxList — the windowed pass is exactly the full
// pass filtered to the lists whose bounds reach the window, so every vertex
// with an entry in the window is yielded, segment for segment. A windowed
// pass must also move exactly the bytes of a full one (skipped lists are
// read past, not left unread), and NextCompressed must honour the window
// with byte-identical encodings.
func TestScanWindowContract(t *testing.T) {
	g, err := gen.PowerLaw(300, 4000, 2.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	pd := orientedStore(t, g)
	n := graph.Vertex(pd.NumVertices())
	rng := rand.New(rand.NewSource(3))
	type window struct{ lo, hi graph.Vertex }
	windows := []window{
		{0, n - 1},            // full: the plain Scan stream
		{0, n / 2},            // a prefix
		{n / 2, n + 100},      // a suffix past the last vertex
		{n + 5, n + 5},        // empty: beyond every list
		{n / 3, n / 3},        // a single vertex
		{0, 0},                // the first vertex only
		{n - 1, 1<<32 - 1},    // the last vertex to the top of the id space
		{n / 2, n/2 - 1},      // inverted (empty) bounds
		{1, n - 1},            // everything but vertex 0
		{0, n - 2},            // everything but the last vertex
		{n / 4, 3 * n / 4},    // a middle span
		{n - n/8, n - n/16},   // a narrow high span
		{n / 16, n/16 + n/32}, // a narrow low span
	}
	for i := 0; i < 12; i++ {
		a, b := graph.Vertex(rng.Intn(int(n))), graph.Vertex(rng.Intn(int(n)))
		if a > b {
			a, b = b, a
		}
		windows = append(windows, window{a, b})
	}
	for _, d := range []*graph.Disk{pd, compressedCopy(t, pd)} {
		for _, kind := range allKinds() {
			for _, maxList := range []int{0, 3, 17} {
				label := fmt.Sprintf("%s/%s/maxList=%d", d.Format(), kind, maxList)
				srcCounter := ioacct.NewCounter(0)
				src, err := New(kind, d, Config{BufBytes: 512, Counter: srcCounter})
				if err != nil {
					t.Fatal(err)
				}
				hc := ioacct.NewCounter(0)
				h, err := src.Handle(hc)
				if err != nil {
					t.Fatal(err)
				}
				full := drain(t, h, maxList)
				for _, w := range windows {
					before, srcBefore := hc.Snapshot().BytesRead, srcCounter.Snapshot().BytesRead
					got := drainWindow(t, h, maxList, w.lo, w.hi)
					sameSegments(t, fmt.Sprintf("%s window [%d,%d]", label, w.lo, w.hi), got, windowFilter(d, full, w.lo, w.hi))
					moved := hc.Snapshot().BytesRead - before
					if kind == SourceShared {
						moved = srcCounter.Snapshot().BytesRead - srcBefore
					}
					if kind != SourceMem && moved != d.AdjBytes() {
						t.Fatalf("%s window [%d,%d]: pass read %d bytes, want the full %d", label, w.lo, w.hi, moved, d.AdjBytes())
					}
					if d.Format() == graph.FormatCompressed && maxList == 0 {
						checkCompressedWindow(t, label, h, d, got, w.lo, w.hi)
					}
				}
				h.Close()
				src.Close()
			}
		}
	}
}

// checkCompressedWindow drains a windowed NextCompressed pass and checks it
// yields exactly the vertices of the windowed Next pass want, each decoding
// to the same list.
func checkCompressedWindow(t *testing.T, label string, h Handle, d *graph.Disk, want []segment, lo, hi graph.Vertex) {
	t.Helper()
	sc, err := h.ScanWindow(0, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	csc, ok := sc.(CompressedScan)
	if !ok {
		t.Fatalf("%s: compressed-store scan has no NextCompressed", label)
	}
	i := 0
	for {
		u, cl, ok := csc.NextCompressed()
		if !ok {
			break
		}
		if i >= len(want) || want[i].u != u {
			t.Fatalf("%s window [%d,%d]: NextCompressed yielded vertex %d at %d, Next did not", label, lo, hi, u, i)
		}
		list, err := cl.Decode(nil)
		if err != nil {
			t.Fatalf("%s: decode vertex %d: %v", label, u, err)
		}
		sameSegments(t, label, []segment{{u, list}}, want[i:i+1])
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("%s window [%d,%d]: NextCompressed yielded %d vertices, Next %d", label, lo, hi, i, len(want))
	}
}

// TestSharedWindowedSubscriberKeepsRoundMoving runs a windowed and a full
// subscriber through the same broadcast rounds with small blocks: the
// windowed one releases the blocks it skips, so neither stalls, both see
// their exact streams, and each round is still one physical scan.
func TestSharedWindowedSubscriberKeepsRoundMoving(t *testing.T) {
	g, err := gen.PowerLaw(400, 6000, 2.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pd := orientedStore(t, g)
	for _, d := range []*graph.Disk{pd, compressedCopy(t, pd)} {
		n := graph.Vertex(d.NumVertices())
		srcCounter := ioacct.NewCounter(0)
		src, err := New(SourceShared, d, Config{BufBytes: 256, Counter: srcCounter})
		if err != nil {
			t.Fatal(err)
		}
		hf, err := src.Handle(nil)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := src.Handle(nil)
		if err != nil {
			t.Fatal(err)
		}
		const passes = 3
		var full, windowed [passes][]segment
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer hf.Close()
			for p := range passes {
				full[p] = drain(t, hf, 16)
			}
		}()
		go func() {
			defer wg.Done()
			defer hw.Close()
			for p := range passes {
				windowed[p] = drainWindow(t, hw, 16, n/3, n/3+n/10)
			}
		}()
		wg.Wait()
		for p := range passes {
			sameSegments(t, string(d.Format())+" windowed", windowed[p], windowFilter(d, full[p], n/3, n/3+n/10))
		}
		if got, want := srcCounter.Snapshot().BytesRead, int64(passes)*d.AdjBytes(); got != want {
			t.Errorf("%s: broadcaster read %d bytes, want exactly %d (one physical scan per round)", d.Format(), got, want)
		}
		src.Close()
	}
}

// TestFullWindowNeverBuildsBoundsIndex: a window spanning every vertex is
// the plain Scan and must not build the bounds index — checked by giving
// the source an already-cancelled context, which fails any index build
// but not a full pass.
func TestFullWindowNeverBuildsBoundsIndex(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := New(SourceBuffered, d, Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	h, err := src.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	n := graph.Vertex(d.NumVertices())
	if got := drainWindow(t, h, 0, 0, n-1); len(got) != d.NumVertices() {
		t.Fatalf("full window yielded %d vertices, want all %d", len(got), d.NumVertices())
	}
	if _, err := h.ScanWindow(0, 1, n-1); !errors.Is(err, context.Canceled) {
		t.Fatalf("windowed pass under a cancelled context = %v, want the index build to fail with context.Canceled", err)
	}
	// The cancelled build was not cached: a live context builds the index.
	live, err := New(SourceBuffered, d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	lh, err := live.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lh.Close()
	full := drain(t, lh, 0)
	sameSegments(t, "after a cancelled build", drainWindow(t, lh, 0, 1, n-1), windowFilter(d, full, 1, n-1))
}
