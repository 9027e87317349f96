// Package mgt implements the modified Massive Graph Triangulation algorithm
// of Section IV-A (Algorithm 2 of the paper).
//
// MGT finds all triangles of an oriented graph G* held on disk by loading
// consecutive out-edges into memory and, for every vertex u of the graph,
// intersecting u's out-list with the in-memory out-lists of u's
// out-neighbors. The paper's modification — kept faithfully here — is that
// all per-vertex structures are *sorted arrays*, never hash sets (their
// set-based implementation was more than 10× slower):
//
//	edg — the in-memory edge chunk: a copy of a contiguous slice of the
//	      adjacency file (the runner's current window of pivot edges);
//	ind — for each vertex v in [vlow, vhigh], the offset and length of the
//	      in-memory portion Ev of v's out-list inside edg;
//	nm  — N(u), the out-list of the current cone candidate u, read from a
//	      sequential scan of the whole adjacency file;
//	nmp — N+(u) = N(u) ∩ V+mem, computed by probing ind.
//
// The default kernel, scan.KernelMark, changes how N(u) meets the lists Ev,
// v ∈ nmp, not what they are. Instead of one two-pointer merge per v, which
// walks N(u) again for every v, the runner sets one bit per entry of N(u)
// in a direct-address bitset over vertex IDs, walks each Ev keeping the
// entries whose bit is set, and clears the words it set. This is not the
// paper's hash set: no list is ever stored in the bitset, every list stays
// a sorted array, and a bit lives only while its cone vertex is processed.
// Probing is one load and shift per entry, with no hashing and no
// data-dependent branch when counting. The bitset has one bit per vertex of
// the store the runner scans, n/8 bytes per runner, allocated once in
// NewRunner. The segmented large-vertex path and the compressed block-kernel
// pass do not use it; scan.KernelMerge runs the paper's merge throughout.
//
// A runner is additionally restricted to a contiguous *global* edge range
// [Lo, Hi): its pivot responsibility in PDTL (Section IV-B). Every triangle
// is reported exactly once across runners, by the runner (and pass) whose
// window holds the triangle's pivot edge. With the full range this is
// exactly the paper's single-core MGT, the baseline of Figure 11.
//
// The runner does not open the adjacency file itself: all data access —
// window loads, sequential scan passes, large-vertex re-reads — goes
// through a scan.Handle, and the intersection through a scan.Kernel, both
// supplied by Config (see internal/scan and DESIGN.md §5). The engine
// layer decides whether the P runners each scan the file privately, share
// one broadcast scan, or run fully in memory; this package is agnostic.
package mgt

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/obs"
	"pdtl/internal/scan"
)

// Sink consumes listed triangles (u, v, w), each with u ≺ v ≺ w in the
// degree-based order. Implementations are called from a single goroutine
// per runner.
type Sink interface {
	Triangle(u, v, w graph.Vertex)
}

// Config parameterizes a runner.
type Config struct {
	// MemEdges is M, the number of adjacency entries the runner may hold
	// in its edg window at once. It drives the pass count R = ceil(S/M)
	// (Section IV-B2). Must be ≥ 1.
	MemEdges int
	// Range is the runner's pivot-edge responsibility. A zero Range means
	// the whole file.
	Range balance.Range
	// Counter receives the runner's I/O accounting; nil allocates a
	// private one.
	Counter *ioacct.Counter
	// BufBytes is the size of the sequential-scan read buffer;
	// non-positive selects 1 MiB. Only consulted when Source is nil.
	BufBytes int
	// Sink, when non-nil, receives every listed triangle. Counting-only
	// runs leave it nil (the paper measures counting time, "or 0 for
	// triangle counting" in Theorem IV.3).
	Sink Sink
	// Source is the runner's access to the adjacency data. The runner
	// never opens the adjacency file itself: window loads, scan passes,
	// and large-vertex re-reads all go through this handle, so the engine
	// decides the I/O strategy (per-runner buffered scans, one shared
	// broadcast scan, or fully in-memory). Nil selects a private
	// scan.SourceBuffered handle charged to Counter — the paper's
	// configuration, and bitwise-identical to the pre-refactor behavior.
	Source scan.Handle
	// Kernel is the sorted-array intersection used on the hot path. Nil
	// selects the default, scan.NewKernel(""); scan.Merge is Section
	// IV-A's two-pointer merge. All kernels produce identical triangles in
	// identical order; they differ only in the work per intersection.
	Kernel scan.Kernel
}

// Stats reports what a runner did — the per-processor raw material of the
// paper's Figures 6–8 and Tables IV and VII.
type Stats struct {
	// Triangles found in the runner's range.
	Triangles uint64
	// Passes is R, the number of memory-window iterations over the graph.
	Passes int
	// EdgesLoaded is the total number of adjacency entries loaded into the
	// window across passes (= the range size).
	EdgesLoaded uint64
	// Intersections is the number of sorted-array intersections performed
	// (|nmp| summed over all scans).
	Intersections uint64
	// CmpOps counts merge steps inside the intersections — a
	// machine-independent proxy for the CPU work of Theorem IV.2's
	// O(|E|²/M + α|E|) term, used by the harness to report scaling
	// independently of the host's core count. Under the mark kernel a
	// cone vertex costs one step per entry of N(u) marked and one per
	// entry of each Ev probed; clearing the marks is not counted.
	CmpOps uint64
	// LargeVertices counts cone vertices whose out-list exceeded M and
	// went through the segmented large-vertex path (the removal of the
	// small-degree assumption, footnote 1 of the paper). Each such vertex
	// incurs one extra sequential read of its own list per pass.
	LargeVertices uint64
	// SegmentsSkipped counts compressed segments rejected on their
	// (first, last) headers alone — never decoded — by the block-skipping
	// path (compressed kernel on a compressed store). Zero for every other
	// kernel/store combination; the skip-effectiveness metric of the bench
	// schema.
	SegmentsSkipped uint64
	// WordOps counts 64-bit word operations executed by the vectorized
	// paths: 8-wide blocks consumed by the unrolled varint decoder plus
	// bitmap words materialized, masked-popcounted, or probed by the
	// word-parallel count kernels (see scan.Arena). The vectorization
	// metric of the bench schema; zero on plain stores.
	WordOps uint64
	// FastDecodes counts compressed segments decoded through
	// graph.DecodeSegmentFast instead of the scalar decoder.
	FastDecodes uint64
	// Wall is the runner's wall-clock time.
	Wall time.Duration
	// IO is the runner's I/O activity; Wall − IO.IOTime() is the "CPU
	// time" of the paper's breakdowns.
	IO ioacct.Stats
}

// CPUTime is wall time minus time spent inside I/O calls.
func (s Stats) CPUTime() time.Duration {
	cpu := s.Wall - s.IO.IOTime()
	if cpu < 0 {
		return 0
	}
	return cpu
}

// Add merges two runner stats (Wall becomes the max — the straggler defines
// elapsed time; everything else sums).
func (s Stats) Add(o Stats) Stats {
	s.Triangles += o.Triangles
	s.Passes += o.Passes
	s.EdgesLoaded += o.EdgesLoaded
	s.Intersections += o.Intersections
	s.CmpOps += o.CmpOps
	s.LargeVertices += o.LargeVertices
	s.SegmentsSkipped += o.SegmentsSkipped
	s.WordOps += o.WordOps
	s.FastDecodes += o.FastDecodes
	if o.Wall > s.Wall {
		s.Wall = o.Wall
	}
	s.IO = s.IO.Add(o.IO)
	return s
}

// indEntry locates the in-memory portion Ev of one vertex's out-list.
type indEntry struct {
	off uint32 // offset into edg
	len uint32 // number of in-memory out-edges of the vertex
}

// Run executes modified MGT over the oriented on-disk graph d. The context
// is the runner's cancellation point: it is checked once per memory window,
// so cancellation aborts the run within one window (and, for a shared scan
// source, also unblocks mid-pass ring-buffer waits). A cancelled run returns
// ctx.Err() with the statistics accumulated so far. A nil ctx means
// context.Background().
//
// Run is the one-shot form: it creates a Runner, executes cfg.Range (zero
// means the whole file), and tears the Runner down. Callers executing many
// ranges against the same store — the work-stealing scheduler — should
// create a Runner once and call RunRange per chunk instead, reusing the
// window and index buffers across chunks.
func Run(ctx context.Context, d *graph.Disk, cfg Config) (Stats, error) {
	r, err := NewRunner(d, cfg)
	if err != nil {
		return Stats{}, err
	}
	defer r.Close()
	rng := cfg.Range
	if rng == (balance.Range{}) {
		rng = balance.Range{Lo: 0, Hi: d.Meta.AdjEntries}
	}
	return r.RunRange(ctx, rng, cfg.Sink)
}

// Runner is a reusable modified-MGT executor over one oriented store. It
// owns the window buffer (edg), the window index (ind), and the
// large-vertex structures (value index, stamp array, chunk buffer), all
// sized once and reused by every RunRange call — under the work-stealing
// scheduler a runner executes many chunks back to back, and per-chunk
// reallocation of these M-sized buffers would dominate small chunks. A
// Runner is not safe for concurrent use; a pool gives each worker its own.
type Runner struct {
	disk   *graph.Disk
	cfg    Config
	handle scan.Handle
	kernel scan.Kernel
	// bkernel is kernel's BlockKernel view when it has one and the store
	// is compressed — the precondition of the direct-on-compressed pass,
	// checked once here instead of per intersection.
	bkernel    scan.BlockKernel
	segScratch []graph.Vertex // segment decode scratch of the compressed pass
	nmp        []graph.Vertex // N+(u) of the current cone vertex, cap min(d*max, M)
	// ckernel/cbkernel are kernel's count-only views (nil when the kernel
	// lacks them): the closure-free hot path taken by RunRange when no sink
	// is attached. cbkernel additionally requires a compressed store, like
	// bkernel.
	ckernel  scan.CountKernel
	cbkernel scan.CountBlockKernel
	// arena owns the runner's reusable word/decode buffers and the
	// monotonic WordOps/FastDecodes counters; RunRange snapshots the
	// counters and reports the per-call delta in Stats.
	arena     *scan.Arena
	countOnly bool // current RunRange has no sink and a count kernel
	// marks is the mark kernel's bitset over the store's vertex IDs (nil
	// under every other kernel). It is all zero between cone vertices.
	marks   []uint64
	counter *ioacct.Counter
	// ownedSrc is the private buffered source Run-style callers get when
	// cfg.Source is nil; Close tears it (and its handle) down.
	ownedSrc scan.Source
	stats    Stats
	sink     Sink

	// Kernel emit plumbing: the pivot pair of the in-flight intersection
	// and the bound emit method, created once so the hot path does not
	// allocate a closure per intersection.
	curU, curV graph.Vertex
	emitFn     func(graph.Vertex)

	// Window state (Algorithm 2's edg/ind plus the window bounds).
	edg   []graph.Vertex
	ind   []indEntry
	vlow  graph.Vertex
	vhigh graph.Vertex
	winLo uint64
	// windowed reports whether the current range needs more than one
	// window. Only then do its passes ask the source for the window's
	// vertex span (see scanPass).
	windowed bool

	// Large-vertex state (removal of the small-degree assumption): a
	// value-sorted index of the window's edges, an epoch-stamped mark
	// array over the window span, and a chunk buffer for re-reading huge
	// cone lists. All O(M + span).
	idxBuilt bool
	idxVals  []graph.Vertex
	idxSrcs  []graph.Vertex
	stamp    []uint32
	epoch    uint32
	chunkBuf []graph.Vertex
}

// NewRunner validates cfg and builds a reusable runner. cfg.Range and
// cfg.Sink are ignored here — each RunRange call names its own range and
// sink. A nil cfg.Source opens a private buffered source (closed by Close);
// an engine-supplied handle is used as-is and stays the engine's to close.
func NewRunner(d *graph.Disk, cfg Config) (*Runner, error) {
	if !d.Meta.Oriented {
		return nil, fmt.Errorf("mgt: store %q is not oriented", d.Base)
	}
	if cfg.MemEdges < 1 {
		return nil, fmt.Errorf("mgt: memory budget %d edges, need ≥ 1", cfg.MemEdges)
	}
	counter := cfg.Counter
	if counter == nil {
		counter = ioacct.NewCounter(0)
	}
	r := &Runner{
		disk:    d,
		cfg:     cfg,
		counter: counter,
		handle:  cfg.Source,
		kernel:  cfg.Kernel,
		edg:     make([]graph.Vertex, 0, cfg.MemEdges),
	}
	if r.handle == nil {
		src, err := scan.New(scan.SourceBuffered, d, scan.Config{BufBytes: cfg.BufBytes, Counter: counter})
		if err != nil {
			return nil, err
		}
		h, err := src.Handle(counter)
		if err != nil {
			src.Close()
			return nil, err
		}
		r.ownedSrc = src
		r.handle = h
	}
	if r.kernel == nil {
		k, err := scan.NewKernel("")
		if err != nil {
			r.Close()
			return nil, err
		}
		r.kernel = k
	}
	if r.kernel.Kind() == scan.KernelMark {
		r.marks = make([]uint64, (d.NumVertices()+63)/64)
	}
	if bk, ok := r.kernel.(scan.BlockKernel); ok && d.Format() == graph.FormatCompressed {
		r.bkernel = bk
		r.segScratch = make([]graph.Vertex, 0, graph.SegmentEntries)
		if cbk, ok := r.kernel.(scan.CountBlockKernel); ok {
			r.cbkernel = cbk
		}
	}
	if ck, ok := r.kernel.(scan.CountKernel); ok {
		r.ckernel = ck
	}
	maxNmp := int(d.Meta.MaxOutDegree)
	if maxNmp > cfg.MemEdges {
		maxNmp = cfg.MemEdges
	}
	r.nmp = make([]graph.Vertex, 0, maxNmp)
	r.arena = scan.NewArena()
	r.emitFn = r.emit
	return r, nil
}

// Close releases the private source a Runner opened for itself; an
// engine-supplied handle is left open (the engine owns it).
func (r *Runner) Close() error {
	if r.ownedSrc == nil {
		return nil
	}
	err := r.handle.Close()
	if cerr := r.ownedSrc.Close(); err == nil {
		err = cerr
	}
	r.ownedSrc = nil
	return err
}

// RunRange executes modified MGT over one pivot range, reporting triangles
// to sink. A nil sink selects the count-only hot path: intersections go
// through the kernel's CountKernel/CountBlockKernel views (closure-free, no
// triangle materialization, word-parallel bitmap counting on compressed
// stores), which produce the identical triangle count — the crosscheck
// matrix pins count == listing == baseline for every combination. The
// returned Stats cover this call alone — wall time and the I/O delta since
// the call started — so a scheduler can fold them per chunk. An empty range
// is a no-op. The context is checked once per memory window, exactly like
// Run.
func (r *Runner) RunRange(ctx context.Context, rng balance.Range, sink Sink) (Stats, error) {
	//pdtl:nondeterministic-ok wall-clock feeds Stats.Wall only, never listing order
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	total := r.disk.Meta.AdjEntries
	if rng.Hi > total || rng.Lo > rng.Hi {
		return Stats{}, fmt.Errorf("mgt: range [%d,%d) out of bounds for %d entries", rng.Lo, rng.Hi, total)
	}
	r.stats = Stats{}
	r.sink = sink
	r.windowed = rng.Hi-rng.Lo > uint64(r.cfg.MemEdges)
	r.countOnly = sink == nil && r.ckernel != nil
	ioStart := r.counter.Snapshot()
	wordStart, fastStart := r.arena.WordOps, r.arena.FastDecodes
	// The chunk span (allocation-free: cursor lookup plus slab writes).
	// Its attributes carry this call's stat deltas, so a trace attributes
	// wall time to scan I/O vs. intersection CPU per chunk.
	cur := obs.CursorFrom(ctx)
	span := cur.Begin(obs.SpanChunk)

	finish := func(err error) (Stats, error) {
		r.stats.Wall = time.Since(start) //pdtl:nondeterministic-ok timing stat only
		r.stats.IO = r.counter.Snapshot().Sub(ioStart)
		r.stats.WordOps += r.arena.WordOps - wordStart
		r.stats.FastDecodes += r.arena.FastDecodes - fastStart
		cur.SetAttr(span, "lo", int64(rng.Lo))
		cur.SetAttr(span, "hi", int64(rng.Hi))
		cur.SetAttr(span, "cmp_ops", int64(r.stats.CmpOps))
		cur.SetAttr(span, "io_bytes", r.stats.IO.BytesRead)
		cur.SetAttr(span, "word_ops", int64(r.stats.WordOps))
		cur.SetAttr(span, "passes", int64(r.stats.Passes))
		cur.End(span)
		r.sink = nil
		// A cancelled run reports the bare ctx.Err(), whichever layer the
		// cancellation surfaced through first (window check here, or a scan
		// source's wrapped ring-buffer error).
		if cerr := ctx.Err(); cerr != nil {
			return r.stats, cerr
		}
		return r.stats, err
	}
	for pos := rng.Lo; pos < rng.Hi; {
		// The per-window cancellation point: one check per memory window
		// bounds abort latency at a single window's load + pass.
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		end := pos + uint64(r.cfg.MemEdges)
		if end > rng.Hi {
			end = rng.Hi
		}
		if err := r.loadWindow(pos, end); err != nil {
			return finish(err)
		}
		if err := r.scanPass(); err != nil {
			return finish(err)
		}
		r.stats.Passes++
		pos = end
	}
	return finish(nil)
}

// emit consumes one kernel match: common vertex w closes triangle
// (curU, curV, w).
//
//pdtl:hotpath
func (r *Runner) emit(w graph.Vertex) {
	r.stats.Triangles++
	if r.sink != nil {
		r.sink.Triangle(r.curU, r.curV, w)
	}
}

// loadWindow loads the edge window [pos, end) and builds ind over its
// vertex span.
func (r *Runner) loadWindow(pos, end uint64) error {
	count := int(end - pos)
	r.edg = r.edg[:count]
	if err := r.handle.ReadEntries(r.edg, pos); err != nil {
		return fmt.Errorf("mgt: load window: %w", err)
	}
	r.stats.EdgesLoaded += uint64(count)
	r.winLo = pos

	d := r.disk
	r.vlow = d.VertexAt(pos)
	r.vhigh = d.VertexAt(end - 1)
	span := int(r.vhigh-r.vlow) + 1
	if cap(r.ind) < span {
		r.ind = make([]indEntry, span)
		r.stamp = make([]uint32, span)
		r.epoch = 0
	} else {
		r.ind = r.ind[:span]
		r.stamp = r.stamp[:span]
		for i := range r.ind {
			r.ind[i] = indEntry{}
		}
	}
	for v := r.vlow; v <= r.vhigh; v++ {
		lo := d.Offsets[v]
		hi := d.Offsets[v+1]
		if lo < pos {
			lo = pos
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			r.ind[v-r.vlow] = indEntry{off: uint32(lo - pos), len: uint32(hi - lo)}
		}
	}
	r.idxBuilt = false
	return nil
}

// scanPass streams the adjacency file once, reporting every triangle whose
// pivot edge is inside the current window. In a range of several windows
// the pass is windowed to [vlow, vhigh]: the source may leave out cone
// vertices whose list has no entry there, which could not yield an
// intersection. A range that one window covers is scanned once, in full:
// the bounds index a windowed pass filters with costs about one pass to
// build, so such a range never asks for it. Cone vertices whose out-list
// exceeds M take the segmented large-vertex path. When the kernel can
// intersect compressed lists and the scan can deliver them, the pass runs
// directly on the compressed form instead. Under the mark kernel every
// other cone vertex with a non-empty N+(u) goes through markProbe.
func (r *Runner) scanPass() error {
	d := r.disk
	lo, hi := graph.Vertex(0), graph.Vertex(math.MaxUint32)
	if r.windowed {
		lo, hi = r.vlow, r.vhigh
	}
	sc, err := r.handle.ScanWindow(r.cfg.MemEdges, lo, hi)
	if err != nil {
		return err
	}
	defer sc.Close()
	if r.bkernel != nil {
		if csc, ok := sc.(scan.CompressedScan); ok {
			return r.scanPassCompressed(sc, csc)
		}
	}

	nmp := r.nmp
	for {
		u, nm, ok := sc.Next()
		if !ok {
			break
		}
		if int(d.Degrees[u]) > r.cfg.MemEdges {
			if err := r.largeVertex(sc, u, nm); err != nil {
				return err
			}
			continue
		}
		if len(nm) < 2 {
			continue // need at least a pivot source and a closing vertex
		}
		// Quick reject: nm is sorted, so if it cannot contain any vertex
		// of [vlow, vhigh] there is nothing to do.
		if nm[len(nm)-1] < r.vlow || nm[0] > r.vhigh {
			continue
		}
		// nmp := N+(u) — out-neighbors of u with out-edges in memory.
		nmp = nmp[:0]
		for _, v := range nm {
			if v < r.vlow {
				continue
			}
			if v > r.vhigh {
				break
			}
			if r.ind[v-r.vlow].len > 0 {
				nmp = append(nmp, v)
			}
		}
		if r.marks != nil {
			if len(nmp) > 0 {
				r.markProbe(u, nm, nmp)
			}
			continue
		}
		for _, v := range nmp {
			e := r.ind[v-r.vlow]
			ev := r.edg[e.off : e.off+e.len]
			r.stats.Intersections++
			// Intersect sorted nm with sorted Ev via the configured
			// kernel; every common vertex w closes triangle (u, v, w)
			// with pivot (v, w). Count-only runs take the closure-free
			// Count path — same comparisons, no emit call per match.
			if r.countOnly {
				c, steps := r.ckernel.Count(nm, ev)
				r.stats.Triangles += c
				r.stats.CmpOps += steps
			} else {
				r.curU, r.curV = u, v
				r.stats.CmpOps += r.kernel.Intersect(nm, ev, r.emitFn)
			}
		}
	}
	return sc.Err()
}

// markProbe is the mark kernel's step for one cone vertex u with
// N(u) = nm and N+(u) = nmp (non-empty): mark every entry of nm, walk each
// Ev, v ∈ nmp, in ascending order keeping the marked entries — each closes
// triangle (u, v, w), emitted in the order a merge of nm with Ev emits it —
// and clear the words the marks set. One body serves counting and listing:
// without a sink the hit is added, not branched on.
//
//pdtl:hotpath
func (r *Runner) markProbe(u graph.Vertex, nm, nmp []graph.Vertex) {
	marks := r.marks
	for _, w := range nm {
		marks[w>>6] |= 1 << (w & 63)
	}
	sink := r.sink
	var found, probes uint64
	for _, v := range nmp {
		e := r.ind[v-r.vlow]
		ev := r.edg[e.off : e.off+e.len]
		probes += uint64(len(ev))
		for _, w := range ev {
			hit := marks[w>>6] >> (w & 63) & 1
			found += hit
			if sink != nil && hit != 0 {
				sink.Triangle(u, v, w)
			}
		}
	}
	for _, w := range nm {
		marks[w>>6] = 0
	}
	r.stats.Triangles += found
	r.stats.Intersections += uint64(len(nmp))
	r.stats.CmpOps += uint64(len(nm)) + probes
}

// scanPassCompressed is scanPass running directly on the encoded adjacency
// stream: each cone list arrives as a graph.CompressedList and both the
// N+(u) filter and the intersections work segment-by-segment, decoding a
// segment only when its (first, last) header overlaps the relevant range.
// Segments rejected on the header alone are counted in SegmentsSkipped.
// The triangle stream is identical to the decoded pass — same (u, v) order,
// same ascending w per pivot — which the cross-check tests pin down.
func (r *Runner) scanPassCompressed(sc scan.Scan, csc scan.CompressedScan) error {
	d := r.disk
	nmp := r.nmp
	for {
		u, cl, ok := csc.NextCompressed()
		if !ok {
			break
		}
		if int(d.Degrees[u]) > r.cfg.MemEdges {
			if err := r.largeVertexCompressed(u, cl); err != nil {
				return err
			}
			continue
		}
		if cl.Degree < 2 {
			continue // need at least a pivot source and a closing vertex
		}
		// nmp := N+(u) — out-neighbors of u with out-edges in memory.
		// Collected segment-wise: a segment whose span misses the window's
		// vertex range [vlow, vhigh] is skipped on its header alone;
		// surviving varint segments decode through the unrolled 8-wide
		// decoder (bitmap segments pass through it to the scalar path).
		nmp = nmp[:0]
		it := cl.Segments()
		for {
			seg, ok := it.Next()
			if !ok {
				break
			}
			if seg.Last < r.vlow || seg.First > r.vhigh {
				r.stats.SegmentsSkipped++
				continue
			}
			vals, err := r.decodeSegmentFast(seg)
			if err != nil {
				return fmt.Errorf("mgt: decode list of vertex %d: %w", u, err)
			}
			for _, v := range vals {
				if v < r.vlow {
					continue
				}
				if v > r.vhigh {
					break
				}
				if r.ind[v-r.vlow].len > 0 {
					nmp = append(nmp, v)
				}
			}
		}
		if err := it.Err(); err != nil {
			return fmt.Errorf("mgt: list of vertex %d: %w", u, err)
		}
		for _, v := range nmp {
			e := r.ind[v-r.vlow]
			ev := r.edg[e.off : e.off+e.len]
			r.stats.Intersections++
			if r.countOnly && r.cbkernel != nil {
				// Count-only hot path: word-parallel bitmap counting and
				// unrolled varint decode via the runner's arena, no emit
				// closure, no payload materialization for bitmap segments.
				c, steps, skipped, err := r.cbkernel.CountCompressed(cl, ev, r.arena)
				if err != nil {
					return fmt.Errorf("mgt: intersect list of vertex %d: %w", u, err)
				}
				r.stats.Triangles += c
				r.stats.CmpOps += steps
				r.stats.SegmentsSkipped += skipped
				continue
			}
			r.curU, r.curV = u, v
			steps, skipped, err := r.bkernel.IntersectCompressed(cl, ev, r.segScratch, r.emitFn)
			if err != nil {
				return fmt.Errorf("mgt: intersect list of vertex %d: %w", u, err)
			}
			r.stats.CmpOps += steps
			r.stats.SegmentsSkipped += skipped
		}
	}
	return sc.Err()
}

// decodeSegmentFast decodes one segment into the runner's scratch through
// the unrolled decoder, crediting the arena's vectorization counters.
func (r *Runner) decodeSegmentFast(seg graph.Segment) ([]graph.Vertex, error) {
	vals, blocks, err := graph.DecodeSegmentFast(seg, r.segScratch)
	if err != nil {
		return nil, err
	}
	if seg.Kind == graph.SegVarint {
		// Bitmap segments pass through to the scalar expansion; only
		// varint segments took the unrolled path.
		r.arena.FastDecodes++
		r.arena.WordOps += uint64(blocks)
	}
	return vals, nil
}

// largeVertexCompressed is the large-vertex path of the compressed pass.
// The whole encoded list is in hand (compressed lists are not segmented by
// maxList), so pass 1 marks window vertices directly from it — decoding
// only the segments whose header span overlaps [vlow, vhigh] — and pass 2
// is the shared chunked re-read.
func (r *Runner) largeVertexCompressed(u graph.Vertex, cl graph.CompressedList) error {
	r.stats.LargeVertices++
	r.bumpEpoch()
	it := cl.Segments()
	for {
		seg, ok := it.Next()
		if !ok {
			break
		}
		if seg.Last < r.vlow || seg.First > r.vhigh {
			r.stats.SegmentsSkipped++
			continue
		}
		vals, err := r.decodeSegmentFast(seg)
		if err != nil {
			return fmt.Errorf("mgt: decode list of large vertex %d: %w", u, err)
		}
		for _, a := range vals {
			if a >= r.vlow && a <= r.vhigh {
				r.stamp[a-r.vlow] = r.epoch
			}
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("mgt: list of large vertex %d: %w", u, err)
	}
	return r.largeVertexPass2(u)
}

// largeVertex handles a cone vertex u with d*(u) > M without ever holding
// N(u) in memory — the paper's footnote-1 removal of the small-degree
// assumption. firstSeg is the first segment the scanner already yielded.
//
// Pass 1 (the scanner's remaining segments): mark every window vertex that
// appears in N(u) with the current epoch. Pass 2 (a second sequential read
// of N(u) via ReadAt): merge N(u) against the value-sorted index of the
// window's edges; a match (w, v) with v marked means v, w ∈ N(u) and
// (v, w) in the window — triangle (u, v, w). The extra I/O is one re-read
// of u's list per pass, O(scan(d(u))).
func (r *Runner) largeVertex(sc scan.Scan, u graph.Vertex, firstSeg []graph.Vertex) error {
	d := r.disk
	r.stats.LargeVertices++
	r.bumpEpoch()
	mark := func(seg []graph.Vertex) {
		for _, a := range seg {
			if a >= r.vlow && a <= r.vhigh {
				r.stamp[a-r.vlow] = r.epoch
			}
		}
	}
	mark(firstSeg)
	remaining := int(d.Degrees[u]) - len(firstSeg)
	for remaining > 0 {
		u2, seg, ok := sc.Next()
		if !ok {
			return fmt.Errorf("mgt: truncated segments for vertex %d: %w", u, sc.Err())
		}
		if u2 != u {
			return fmt.Errorf("mgt: segment stream switched from %d to %d mid-list", u, u2)
		}
		mark(seg)
		remaining -= len(seg)
	}
	return r.largeVertexPass2(u)
}

// bumpEpoch advances the mark-array epoch, resetting the stamps on
// wrap-around so a stale epoch value can never alias a fresh one.
func (r *Runner) bumpEpoch() {
	r.epoch++
	if r.epoch == 0 {
		for i := range r.stamp {
			r.stamp[i] = 0
		}
		r.epoch = 1
	}
}

// largeVertexPass2 is the second pass shared by both large-vertex paths:
// re-read N(u) sequentially in M-sized chunks and merge it against the
// value-sorted index of the window's edges; a match (w, v) with v marked
// in the current epoch closes triangle (u, v, w).
func (r *Runner) largeVertexPass2(u graph.Vertex) error {
	r.buildValueIndex()
	d := r.disk
	if r.chunkBuf == nil {
		r.chunkBuf = make([]graph.Vertex, r.cfg.MemEdges)
	}
	lo, hi := d.Offsets[u], d.Offsets[u+1]
	i := 0 // cursor into the value index, shared across chunks (N(u) sorted)
	var steps uint64
	for pos := lo; pos < hi; {
		end := pos + uint64(r.cfg.MemEdges)
		if end > hi {
			end = hi
		}
		chunk := r.chunkBuf[:end-pos]
		if err := r.handle.ReadEntries(chunk, pos); err != nil {
			return fmt.Errorf("mgt: re-read large vertex %d: %w", u, err)
		}
		for _, w := range chunk {
			for i < len(r.idxVals) && r.idxVals[i] < w {
				i++
				steps++
			}
			for i < len(r.idxVals) && r.idxVals[i] == w {
				steps++
				v := r.idxSrcs[i]
				if r.stamp[v-r.vlow] == r.epoch {
					r.stats.Triangles++
					if r.sink != nil {
						r.sink.Triangle(u, v, w)
					}
				}
				i++
			}
		}
		pos = end
	}
	r.stats.Intersections++
	r.stats.CmpOps += steps
	return nil
}

// buildValueIndex lazily builds the window's (value, source) edge index
// sorted by value, used by the large-vertex path. Built at most once per
// window.
func (r *Runner) buildValueIndex() {
	if r.idxBuilt {
		return
	}
	n := len(r.edg)
	if cap(r.idxVals) < n {
		r.idxVals = make([]graph.Vertex, n)
		r.idxSrcs = make([]graph.Vertex, n)
	} else {
		r.idxVals = r.idxVals[:n]
		r.idxSrcs = r.idxSrcs[:n]
	}
	pos := 0
	for v := r.vlow; v <= r.vhigh; v++ {
		e := r.ind[v-r.vlow]
		for k := uint32(0); k < e.len; k++ {
			r.idxVals[pos] = r.edg[e.off+k]
			r.idxSrcs[pos] = v
			pos++
		}
	}
	r.idxVals = r.idxVals[:pos]
	r.idxSrcs = r.idxSrcs[:pos]
	sortByValue(r.idxVals, r.idxSrcs)
	r.idxBuilt = true
}

// sortByValue sorts the parallel (vals, srcs) arrays by vals.
func sortByValue(vals, srcs []graph.Vertex) {
	sort.Sort(&valueIndex{vals: vals, srcs: srcs})
}

type valueIndex struct {
	vals []graph.Vertex
	srcs []graph.Vertex
}

func (x *valueIndex) Len() int { return len(x.vals) }
func (x *valueIndex) Less(i, j int) bool {
	if x.vals[i] != x.vals[j] {
		return x.vals[i] < x.vals[j]
	}
	return x.srcs[i] < x.srcs[j]
}
func (x *valueIndex) Swap(i, j int) {
	x.vals[i], x.vals[j] = x.vals[j], x.vals[i]
	x.srcs[i], x.srcs[j] = x.srcs[j], x.srcs[i]
}

// FullRange returns the range covering the whole oriented store.
func FullRange(d *graph.Disk) balance.Range {
	return balance.Range{Lo: 0, Hi: d.Meta.AdjEntries}
}

// CheckSmallDegree verifies the paper's small-degree assumption
// d*max ≤ c·M/2 for implementation constant c < 1 (we use c = 1 and warn at
// equality): it returns an error describing the violation, or nil. The
// algorithm stays correct without it — only the CPU bound of Theorem IV.2
// needs it — so callers treat this as advisory.
func CheckSmallDegree(d *graph.Disk, memEdges int) error {
	if uint64(d.Meta.MaxOutDegree) > uint64(memEdges)/2 {
		return fmt.Errorf("mgt: small-degree assumption violated: d*max=%d > M/2=%d (correctness unaffected; CPU bound of Theorem IV.2 may not hold)",
			d.Meta.MaxOutDegree, memEdges/2)
	}
	return nil
}

// CountSink accumulates a plain count; it is the zero-cost sink used when
// only the total is needed by a caller that still wants sink plumbing.
type CountSink struct {
	N uint64
}

// Triangle implements Sink.
func (c *CountSink) Triangle(u, v, w graph.Vertex) { c.N++ }

// FuncSink adapts a function to the Sink interface.
type FuncSink func(u, v, w graph.Vertex)

// Triangle implements Sink.
func (f FuncSink) Triangle(u, v, w graph.Vertex) { f(u, v, w) }

// FileSink streams triangles as little-endian uint32 triples to a writer —
// the listing output path ("and possibly the triangle lists if necessary",
// Section IV-B1). It buffers internally; call Flush when done.
type FileSink struct {
	w   io.Writer
	buf []byte
	n   int
	err error
	// Count is the number of triangles written.
	Count uint64
}

// NewFileSink creates a FileSink with a 64 KiB buffer.
func NewFileSink(w io.Writer) *FileSink {
	return &FileSink{w: w, buf: make([]byte, 64*1024)}
}

// Triangle implements Sink.
func (f *FileSink) Triangle(u, v, w graph.Vertex) {
	if f.err != nil {
		return
	}
	if f.n+12 > len(f.buf) {
		f.flushBuf()
	}
	binary.LittleEndian.PutUint32(f.buf[f.n:], u)
	binary.LittleEndian.PutUint32(f.buf[f.n+4:], v)
	binary.LittleEndian.PutUint32(f.buf[f.n+8:], w)
	f.n += 12
	f.Count++
}

func (f *FileSink) flushBuf() {
	if f.n > 0 && f.err == nil {
		_, f.err = f.w.Write(f.buf[:f.n])
		f.n = 0
	}
}

// Flush writes any buffered triples and reports the first error encountered.
func (f *FileSink) Flush() error {
	f.flushBuf()
	return f.err
}

// ReadTriangles decodes a FileSink stream back into triples (test/tool
// helper).
func ReadTriangles(r io.Reader) ([][3]graph.Vertex, error) {
	var out [][3]graph.Vertex
	buf := make([]byte, 12)
	for {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, [3]graph.Vertex{
			binary.LittleEndian.Uint32(buf[0:]),
			binary.LittleEndian.Uint32(buf[4:]),
			binary.LittleEndian.Uint32(buf[8:]),
		})
	}
}
