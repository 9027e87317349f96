// Package pdtl is a Go implementation of PDTL — Parallel and Distributed
// Triangle Listing for massive graphs (Giechaskiel, Panagopoulos, Yoneki;
// ICPP 2015 / UCAM-CL-TR-866).
//
// PDTL counts or lists the exact set of triangles of an undirected simple
// graph using external memory: instead of fitting (sub)graphs into RAM, it
// orients the graph by a degree-based order, replicates the oriented graph
// to every machine, assigns every processor a contiguous range of "pivot"
// edges, and streams the graph from disk once per memory-sized window of
// that range (an extension of Hu et al.'s MGT algorithm). CPU, I/O, memory
// and network use are all provably bounded; per-core memory need only hold
// twice the maximum oriented degree.
//
// The primary entry point is the Graph handle (see handle.go):
//
//   - Open — a long-lived handle on one graph store, with the orientation,
//     degree index, and load-balance plan computed once and reused by every
//     run; all run methods take a context.Context for cancellation;
//   - g.Count / g.List / g.ForEach / g.Triangles / g.TriangleDegrees —
//     single-machine, multi-core runs;
//   - g.CountDistributed / ServeWorkerContext — the distributed protocol
//     with a master and TCP worker nodes;
//   - Generate* / Import* — dataset creation and ingest into the binary
//     store format (degree file + adjacency file + JSON metadata).
//
// For a resident, multi-tenant deployment, internal/service wraps a
// registry of these handles behind an HTTP/JSON API with admission
// control, result memoization (keyed by Options.Key), and per-graph
// single-flight; cmd/pdtl-serve is its daemon (DESIGN.md §8).
//
// The free functions (Count, List, ForEachTriangle, TriangleDegrees,
// CountDistributed) are deprecated one-shot wrappers — each opens a handle,
// runs once with context.Background(), and closes — kept so existing
// callers compile unchanged.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results.
package pdtl

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// Options parameterize a local (single-machine) run.
type Options struct {
	// Workers is the number of concurrent MGT runners (P). Non-positive
	// selects the number of CPUs.
	Workers int
	// MemEdges is the per-worker memory budget M, in adjacency entries
	// (4 bytes each). Non-positive selects a 16 MiB default. Correctness
	// never depends on M; it only trades passes for memory.
	MemEdges int
	// NaiveBalance disables the paper's in-degree load balancer and splits
	// edges equally instead (the "w/o LB" ablation of Figure 9).
	NaiveBalance bool
	// BufBytes is each runner's sequential read buffer; non-positive
	// selects 1 MiB.
	BufBytes int
	// ScanSource selects how adjacency data reaches the runners: "auto"
	// (or empty — one shared physical scan per round of passes when
	// Workers > 1, per-runner buffered scans otherwise), "buffered" (the
	// paper's configuration: every runner scans the file itself),
	// "shared" (one sequential reader broadcasts to all runners), or
	// "mem" (whole adjacency array in RAM; for graphs that fit). The
	// triangle output is identical for every choice.
	ScanSource string
	// Kernel selects the sorted-array intersection kernel: "mark" (or
	// empty — each cone list N(u) is marked once in a bitset over vertex
	// IDs, n/8 bytes per runner, and every in-window list is probed
	// against it), "merge" (the paper's two-pointer merge, one per list
	// pair), "gallop" (exponential + binary search, for skewed list
	// lengths), "adaptive" (picks per pair by length ratio), "compressed"
	// (block skipping on 256-entry segment ranges; on a compressed store
	// it intersects the encoded form directly), or "cover" (range-cover
	// pre-filter). The triangle output is identical for every choice. Counting runs (Count,
	// CountDistributed, the service's /count) additionally take each
	// kernel's closure-free count-only path — with word-parallel bitmap
	// counting and unrolled varint decoding on compressed stores — which
	// changes no counts, only speed.
	Kernel string
	// Sched selects the chunk scheduler: "static" (or empty — the paper's
	// one-shot binding of one contiguous edge range per worker) or
	// "stealing" (the load-balance plan is cut into Chunks×Workers
	// weighted chunks drawn dynamically by the worker pool, so an early
	// finisher takes the straggler's remaining work instead of idling).
	// The triangle set is identical for both; "stealing" listings are
	// deterministic in chunk order rather than the static worker order.
	Sched string
	// Chunks is the chunks-per-worker factor K of the stealing scheduler;
	// non-positive selects the default (8). Ignored under "static".
	Chunks int
	// StoreFormat selects the on-disk encoding of the oriented store built
	// when the input is unoriented: "plain" (or empty — 4 bytes per
	// adjacency entry) or "compressed" (delta-varint/bitmap segments; see
	// DESIGN.md §10). An already-oriented input is used in the format it is
	// in. The triangle output is identical for either format.
	StoreFormat string
}

// Key returns the canonical identity of a run with these Options: every
// default is resolved (worker count, memory budget, balance strategy, scan
// source, kernel, scheduler, chunk count), so two Options values that would
// execute the same calculation map to the same key even when one spells a
// default explicitly and the other leaves it zero. Two runs with equal keys
// on the same store produce the identical triangle set, which makes Key the
// memoization and single-flight identity of the query service
// (internal/service); it doubles as a stable human-readable run label.
func (o Options) Key() (string, error) {
	copt, err := o.toCore()
	if err != nil {
		return "", err
	}
	workers := copt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	mem := copt.MemEdges
	if mem <= 0 {
		mem = core.DefaultMemEdges
	}
	chunks := 0
	if copt.Sched == sched.Stealing {
		chunks = sched.ChunksFor(workers, copt.Chunks)
	}
	store := copt.Store
	if store == "" {
		store = graph.FormatPlain
	}
	return fmt.Sprintf("w%d m%d %s %s %s %s c%d %s",
		workers, mem, copt.Strategy, copt.Sched, copt.Scan.Resolve(workers), copt.Kernel, chunks, store), nil
}

func (o Options) toCore() (core.Options, error) {
	strategy := balance.InDegree
	if o.NaiveBalance {
		strategy = balance.Naive
	}
	scanKind, err := scan.ParseSource(o.ScanSource)
	if err != nil {
		return core.Options{}, err
	}
	kernelKind, err := scan.ParseKernel(o.Kernel)
	if err != nil {
		return core.Options{}, err
	}
	schedMode, err := sched.ParseMode(o.Sched)
	if err != nil {
		return core.Options{}, err
	}
	format, err := graph.ParseFormat(o.StoreFormat)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workers:  o.Workers,
		MemEdges: o.MemEdges,
		Strategy: strategy,
		BufBytes: o.BufBytes,
		Scan:     scanKind,
		Kernel:   kernelKind,
		Sched:    schedMode,
		Chunks:   o.Chunks,
		Store:    format,
	}, nil
}

// WorkerStats describes one runner's share of a run.
type WorkerStats struct {
	// Worker is the runner index.
	Worker int
	// EdgeLo and EdgeHi delimit the runner's pivot-edge range. Under the
	// stealing scheduler they bound the (possibly non-contiguous) union of
	// the chunks the runner drew.
	EdgeLo, EdgeHi uint64
	// Chunks is how many chunks the runner executed: 1 under the static
	// scheduler, the dynamic draw count under stealing.
	Chunks int
	// Triangles found in the range.
	Triangles uint64
	// Passes is the number of memory windows the runner iterated.
	Passes int
	// CPUTime and IOTime split the runner's wall time into computation
	// and time spent inside disk reads.
	CPUTime, IOTime time.Duration
	// BytesRead is the runner's total disk read volume.
	BytesRead int64
}

// Result reports a local run.
type Result struct {
	// Triangles is the exact triangle count of the graph.
	Triangles uint64
	// OrientTime is the preprocessing time (zero if the input store was
	// already oriented).
	OrientTime time.Duration
	// PlanTime is the load-balance planning slice of CalcTime (~zero when
	// the handle's plan cache hits).
	PlanTime time.Duration
	// CalcTime is the calculation phase (load balancing + slowest runner).
	CalcTime time.Duration
	// TotalTime is OrientTime + CalcTime.
	TotalTime time.Duration
	// MaxOutDegree is d*max of the orientation.
	MaxOutDegree uint32
	// Workers holds per-runner statistics.
	Workers []WorkerStats
	// OrientedBase is the path of the oriented store used (reusable as the
	// input of later runs to skip orientation).
	OrientedBase string
	// ScanSource is the concrete scan source the run used ("buffered",
	// "shared", or "mem" — "auto" resolved).
	ScanSource string
	// Sched is the chunk scheduler the run used ("static" or "stealing").
	Sched string
	// SourceBytesRead is the disk volume the scan source read on its own
	// behalf: the shared broadcaster's single scan per round of passes,
	// or the in-memory preload. Zero for "buffered", whose scans are
	// charged to the per-worker BytesRead instead.
	SourceBytesRead int64
	// MutGen is, for LiveGraph.Count, the number of mutation batches
	// applied to the view the count ran against; zero otherwise.
	MutGen uint64
}

// Count counts the triangles of the graph stored at base (see WriteGraph
// and the Generate/Import helpers for creating stores). Unoriented stores
// are oriented first; the oriented store is left at Result.OrientedBase for
// reuse.
//
// Deprecated: one-shot wrapper. Use Open and (*Graph).Count, which caches
// the orientation and load-balance plan across calls and accepts a
// context.Context for cancellation.
func Count(base string, opt Options) (*Result, error) {
	g, err := Open(base)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return g.Count(context.Background(), opt)
}

// ForEachTriangle invokes fn once per triangle (u, v, w), ordered by the
// degree-based order u ≺ v ≺ w. fn is called concurrently from Workers
// goroutines; it must be safe for concurrent use (or set Workers to 1).
//
// Deprecated: one-shot wrapper. Use Open and (*Graph).ForEach (or the
// (*Graph).Triangles iterator).
func ForEachTriangle(base string, opt Options, fn func(u, v, w uint32)) (*Result, error) {
	g, err := Open(base)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return g.ForEach(context.Background(), opt, fn)
}

// List writes every triangle to outPath as little-endian uint32 triples
// (12 bytes per triangle) and returns the run's statistics. Use
// ReadTriangleFile to decode. The per-worker intermediates are anonymous
// temp files next to outPath, so concurrent List calls — even onto the
// same path — never clobber each other's parts.
//
// Deprecated: one-shot wrapper. Use Open and (*Graph).List, which streams
// to any io.Writer.
func List(base, outPath string, opt Options) (*Result, error) {
	g, err := Open(base)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return g.ListFile(context.Background(), outPath, opt)
}

// TriangleDegrees returns, for every vertex, the number of triangles it
// participates in — the per-vertex quantity behind local clustering
// coefficients and related metrics from the paper's introduction.
//
// Deprecated: one-shot wrapper. Use Open and (*Graph).TriangleDegrees.
func TriangleDegrees(base string, opt Options) ([]uint64, *Result, error) {
	g, err := Open(base)
	if err != nil {
		return nil, nil, err
	}
	defer g.Close()
	return g.TriangleDegrees(context.Background(), opt)
}

// ReadTriangleFile decodes a List output file.
func ReadTriangleFile(path string) ([][3]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mgt.ReadTriangles(f)
}

func defaultWorkers() int { return runtime.NumCPU() }

// VerifySmallDegree checks the paper's small-degree assumption
// (d*max ≤ M/2) for an oriented store and budget; the returned error is
// advisory — counting stays exact without it, only the CPU bound weakens.
func VerifySmallDegree(orientedBase string, memEdges int) error {
	d, err := graph.Open(orientedBase)
	if err != nil {
		return err
	}
	return mgt.CheckSmallDegree(d, memEdges)
}
