// Package core is the PDTL engine of Section IV-B: the paper's primary
// contribution. It ties the substrates together on one machine —
// orientation (once), load balancing, and P concurrent modified-MGT runners
// over contiguous edge ranges — and exposes the per-worker accounting that
// the distributed layer and the experiment harness aggregate.
//
// The distributed framework (package cluster) reuses this engine verbatim
// on every node: a node is just an engine fed externally computed ranges,
// which is exactly the paper's design ("every available processor is
// allocated a (contiguous) set of edges S, and is responsible for finding
// all triangles in the graph which contain pivot edges in S, by using
// MGT").
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// Options parameterize a local PDTL run.
type Options struct {
	// Workers is P, the number of concurrent MGT runners. Non-positive
	// selects runtime.NumCPU().
	Workers int
	// MemEdges is M, the per-worker memory budget in adjacency entries.
	// Non-positive selects DefaultMemEdges.
	MemEdges int
	// Strategy selects the load balancer; the default (InDegree) is the
	// paper's, Naive reproduces the "w/o LB" ablation.
	Strategy balance.Strategy
	// OrientWorkers is the parallelism of the orientation step;
	// non-positive means Workers.
	OrientWorkers int
	// BufBytes is each runner's sequential-scan buffer size.
	BufBytes int
	// Sinks, when non-nil, must have one entry per worker; worker i streams
	// its triangles to Sinks[i]. Nil means counting only — runners then
	// take the closure-free count-only kernel path (scan.CountKernel, and
	// scan.CountBlockKernel with word-parallel bitmap counting on
	// compressed stores), which produces the identical triangle count.
	Sinks []mgt.Sink
	// KeepOriented leaves the oriented store on disk after the run (the
	// cluster layer relies on this to copy it to clients).
	KeepOriented bool
	// Scan selects the scan source the engine constructs and owns for the
	// run. The default (scan.SourceAuto) picks scan.SourceShared when
	// more than one runner shares the store — one physical scan per round
	// of passes instead of P — and scan.SourceBuffered (the paper's
	// per-runner scans) for a single runner.
	Scan scan.SourceKind
	// Kernel selects the sorted-array intersection kernel; empty is the
	// default scan.ParseKernel names (scan.KernelMark). scan.KernelMerge
	// is the paper's. All kernels produce identical triangles.
	Kernel scan.KernelKind
	// Sched selects the chunk scheduler: sched.Static (the paper's one-shot
	// range→runner binding, the default) or sched.Stealing (the plan is cut
	// into Chunks·Workers weighted chunks drawn dynamically by a pool of
	// Workers runners, so an early finisher takes the struggler's remaining
	// work instead of idling).
	Sched sched.Mode
	// Store selects the on-disk format of the oriented store the engine
	// builds when its input is unoriented (empty means graph.FormatPlain).
	// An already-oriented input is used in whatever format it is in — the
	// calculation phase is format-agnostic.
	Store graph.Format
	// Chunks is K, the chunks-per-worker factor of the stealing scheduler;
	// non-positive selects sched.DefaultChunksPerWorker. Ignored under
	// Static.
	Chunks int
	// NewSource, when non-nil, replaces scan.New as the constructor of the
	// run's scan source. This is how an overlay view (internal/live) puts a
	// synthetic store in front of the runners: d is then an in-memory
	// merged Disk, and the factory returns a source that resolves reads
	// against base+delta while the engine, runners, and kernels stay
	// unchanged. kind arrives already Resolved.
	NewSource func(kind scan.SourceKind, d *graph.Disk, cfg scan.Config) (scan.Source, error)
}

// DefaultMemEdges is 1<<22 entries = 16 MiB per worker, the same order as
// the paper's 1 GB/core scaled to laptop-size datasets.
const DefaultMemEdges = 1 << 22

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.MemEdges <= 0 {
		o.MemEdges = DefaultMemEdges
	}
	if o.OrientWorkers <= 0 {
		o.OrientWorkers = o.Workers
	}
	if o.NewSource == nil {
		o.NewSource = scan.New
	}
	return o
}

// WorkerStat is one runner's outcome. Under the static scheduler Range is
// the runner's single assigned range and Chunks is 1; under stealing Range
// is the convex hull of the chunks the runner drew from the queue and
// Chunks counts them (the ranges need not be contiguous), with the folded
// Stats summing wall time across the runner's sequential chunks.
type WorkerStat struct {
	Worker int
	Range  balance.Range
	Chunks int
	mgt.Stats
}

// ChunkStat is one chunk's outcome under the stealing scheduler. Everything
// except Worker is deterministic for a given (store, plan, MemEdges): which
// runner executed the chunk depends on timing, but what the chunk computed
// does not — the straggler regression tests rely on this.
type ChunkStat struct {
	// Chunk is the index in the chunked plan (= listing concatenation
	// order).
	Chunk int
	// Worker is the pool runner that executed the chunk.
	Worker int
	Range  balance.Range
	mgt.Stats
}

// Result is the outcome of a local PDTL run.
type Result struct {
	// Triangles is the exact triangle count.
	Triangles uint64
	// Orientation describes the preprocessing step; nil when the input was
	// already oriented.
	Orientation *orient.Result
	// Plan is the load-balancing assignment used.
	Plan balance.Plan
	// Workers holds per-runner statistics.
	Workers []WorkerStat
	// PlanTime is the load-balance planning slice of the calculation
	// phase (in-degree load + range/chunk splitting) — the per-phase wall
	// breakdown the bench schema reports.
	PlanTime time.Duration
	// CalcTime is the calculation phase: load balancing plus the slowest
	// runner (the "struggler" that the paper says determines overall
	// calculation time).
	CalcTime time.Duration
	// TotalTime is orientation + calculation.
	TotalTime time.Duration
	// OrientedBase is the path of the oriented store used.
	OrientedBase string
	// Scan is the concrete scan source the run used (auto resolved).
	Scan scan.SourceKind
	// SourceIO is the I/O the scan source performed on its own behalf:
	// the shared broadcaster's single scan per round, or the in-memory
	// preload. Zero for buffered sources, whose scans are charged to the
	// per-worker counters.
	SourceIO ioacct.Stats
	// Sched is the chunk scheduler the run used.
	Sched sched.Mode
	// ChunkStats holds the per-chunk outcomes of a stealing run (nil under
	// the static scheduler). Plan.Ranges and ChunkStats are index-aligned.
	ChunkStats []ChunkStat
	// MutGen is, for a count over a live graph's view, the number of
	// mutation batches that view reflects; zero for immutable stores.
	MutGen uint64
}

// TotalStats sums the runner statistics (Wall is the straggler max) plus
// the source-level I/O, so total byte volumes are comparable across scan
// sources.
func (r *Result) TotalStats() mgt.Stats {
	var total mgt.Stats
	for _, w := range r.Workers {
		total = total.Add(w.Stats)
	}
	total.IO = total.IO.Add(r.SourceIO)
	return total
}

// Process counts (or lists) the triangles of the graph stored at base.
// Unoriented inputs are oriented first into base+".oriented" (the paper's
// master-side preprocessing); oriented inputs go straight to the
// calculation phase. Cancelling ctx aborts the run within one memory window
// per runner and returns ctx.Err(); nil means context.Background().
func Process(ctx context.Context, base string, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	//pdtl:nondeterministic-ok wall-clock feeds Result timing stats only, never listing order
	start := time.Now()
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}

	cur := obs.CursorFrom(ctx)
	res := &Result{}
	orientedBase := base
	if !d.Meta.Oriented {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		orientedBase = base + ".oriented"
		format, err := graph.ParseFormat(string(opt.Store))
		if err != nil {
			return nil, err
		}
		osp := cur.Begin(obs.SpanOrient)
		ores, err := orient.OrientFormat(base, orientedBase, opt.OrientWorkers, format)
		cur.End(osp)
		if err != nil {
			return nil, err
		}
		res.Orientation = ores
		if d, err = graph.Open(orientedBase); err != nil {
			return nil, err
		}
	}
	res.OrientedBase = orientedBase

	//pdtl:nondeterministic-ok wall-clock feeds Result timing stats only, never listing order
	calcStart := time.Now()
	res.Sched = opt.Sched
	// planFor cuts one range per worker under static, Chunks per worker
	// under stealing — the same cost model, K× finer.
	psp := cur.Begin(obs.SpanPlan)
	plan, err := planFor(d, orientedBase, opt)
	cur.End(psp)
	res.PlanTime = time.Since(calcStart) //pdtl:nondeterministic-ok timing stat only
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	res.Scan = opt.Scan.Resolve(opt.Workers)
	csp := cur.Begin(obs.SpanCalc)
	calcCtx := ctx
	if cur.T != nil {
		calcCtx = obs.ContextWithCursor(ctx, cur.Child(csp))
	}
	var stats []WorkerStat
	var srcIO ioacct.Stats
	if opt.Sched == sched.Stealing {
		stats, res.ChunkStats, srcIO, err = RunChunks(calcCtx, d, plan.Ranges, opt)
	} else {
		stats, srcIO, err = RunRanges(calcCtx, d, plan.Ranges, opt)
	}
	cur.End(csp)
	if err != nil {
		return nil, err
	}
	res.Workers = stats
	res.SourceIO = srcIO
	for _, w := range stats {
		res.Triangles += w.Stats.Triangles
	}
	res.CalcTime = time.Since(calcStart) //pdtl:nondeterministic-ok timing stat only
	res.TotalTime = time.Since(start)    //pdtl:nondeterministic-ok timing stat only
	return res, nil
}

// planFor computes the ranges for an oriented store: one per worker under
// the static scheduler, Chunks per worker under stealing (the same cost
// model cut K× finer via balance.SplitChunks).
func planFor(d *graph.Disk, orientedBase string, opt Options) (balance.Plan, error) {
	in := balance.Inputs{Offsets: d.Offsets, OutDeg: d.Degrees}
	if opt.Strategy == balance.InDegree || opt.Strategy == balance.Cost {
		var err error
		in.InDeg, err = orient.LoadInDegrees(orientedBase, d.NumVertices())
		if err != nil {
			return balance.Plan{}, fmt.Errorf("core: load balancing needs the in-degree file: %w", err)
		}
	}
	if opt.Strategy == balance.Cost {
		var err error
		in.ConeCost, err = balance.ConeCosts(d)
		if err != nil {
			return balance.Plan{}, fmt.Errorf("core: cost balancing scan: %w", err)
		}
	}
	if opt.Sched == sched.Stealing {
		perWorker := opt.Chunks
		if perWorker <= 0 {
			perWorker = sched.DefaultChunksPerWorker
		}
		return balance.SplitChunks(in, opt.Workers, perWorker, opt.Strategy)
	}
	return balance.SplitInputs(in, opt.Workers, opt.Strategy)
}

// Plan exposes planFor for the distributed master, which computes the
// global N·P-range plan centrally (Section IV-B1).
func Plan(d *graph.Disk, orientedBase string, processors int, strategy balance.Strategy) (balance.Plan, error) {
	return planFor(d, orientedBase, Options{Workers: processors, Strategy: strategy})
}

// PlanChunks is the stealing master's plan: the global N·P-processor
// assignment cut into perWorker weighted chunks per processor
// (non-positive perWorker selects the default), dispensed in batches
// instead of pre-split.
func PlanChunks(d *graph.Disk, orientedBase string, processors, perWorker int, strategy balance.Strategy) (balance.Plan, error) {
	return planFor(d, orientedBase, Options{
		Workers:  processors,
		Chunks:   perWorker,
		Strategy: strategy,
		Sched:    sched.Stealing,
	})
}

// RunRanges runs one MGT runner per range, concurrently, against the
// oriented store d. It is the node-side calculation phase: the distributed
// layer calls it with the ranges assigned by the master.
//
// The engine constructs and owns the scan source here: every runner gets a
// per-runner handle (charged to its own counter), and the source-level I/O
// — the shared broadcaster's physical scans, or the in-memory preload — is
// returned alongside the per-worker stats.
//
// ctx cancels the run cooperatively: every runner aborts within one memory
// window, blocked shared-broadcast waits unblock immediately, and the
// source plus all handles are torn down before RunRanges returns ctx.Err()
// — no goroutines or file descriptors outlive the call.
func RunRanges(ctx context.Context, d *graph.Disk, ranges []balance.Range, opt Options) ([]WorkerStat, ioacct.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if !d.Meta.Oriented {
		return nil, ioacct.Stats{}, fmt.Errorf("core: RunRanges requires an oriented store")
	}
	if opt.Sinks != nil && len(opt.Sinks) != len(ranges) {
		return nil, ioacct.Stats{}, fmt.Errorf("core: %d sinks for %d ranges", len(opt.Sinks), len(ranges))
	}
	kernel, err := scan.NewKernel(opt.Kernel)
	if err != nil {
		return nil, ioacct.Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ioacct.Stats{}, err
	}
	src, err := opt.NewSource(opt.Scan.Resolve(len(ranges)), d, scan.Config{
		BufBytes: opt.BufBytes,
		Counter:  ioacct.NewCounter(0),
		Ctx:      ctx,
	})
	if err != nil {
		return nil, ioacct.Stats{}, err
	}
	defer src.Close()

	// All handles are opened before any runner starts: a shared source
	// uses the set of open handles as its broadcast-round quorum, so
	// opening them up front makes round formation deterministic — every
	// runner's pass k rides the same physical scan, P full-file reads
	// collapse to one.
	counters := make([]*ioacct.Counter, len(ranges))
	handles := make([]scan.Handle, len(ranges))
	for i := range ranges {
		counters[i] = ioacct.NewCounter(0)
		h, err := src.Handle(counters[i])
		if err != nil {
			for _, open := range handles[:i] {
				open.Close()
			}
			return nil, src.IO(), err
		}
		handles[i] = h
	}

	stats := make([]WorkerStat, len(ranges))
	errs := make([]error, len(ranges))
	cur := obs.CursorFrom(ctx)
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r balance.Range) {
			defer wg.Done()
			// The handle must be closed as soon as this runner is done
			// (not when all runners are), so that stragglers with more
			// passes left stop waiting on it for round quorum.
			defer handles[i].Close()
			// One context per runner, stamping its chunk spans with the
			// runner index (a traced run pays one allocation per runner
			// here; the per-chunk recording itself never allocates).
			rctx := ctx
			if cur.T != nil {
				rctx = obs.ContextWithCursor(ctx, cur.WithWorker(i))
			}
			cfg := mgt.Config{
				MemEdges: opt.MemEdges,
				Range:    r,
				Counter:  counters[i],
				Source:   handles[i],
				Kernel:   kernel,
			}
			if opt.Sinks != nil {
				cfg.Sink = opt.Sinks[i]
			}
			st, err := mgt.Run(rctx, d, cfg)
			stats[i] = WorkerStat{Worker: i, Range: r, Chunks: 1, Stats: st}
			errs[i] = err
		}(i, r)
	}
	wg.Wait()
	// A cancelled run reports the bare ctx.Err() regardless of which runner
	// (or the scan source) surfaced the cancellation first.
	if err := ctx.Err(); err != nil {
		return stats, src.IO(), err
	}
	for _, err := range errs {
		if err != nil {
			return stats, src.IO(), err
		}
	}
	return stats, src.IO(), nil
}

// RunChunks is the stealing-mode calculation phase: a pool of opt.Workers
// persistent MGT runners drains the chunk queue, each runner drawing the
// next chunk the moment it finishes its current one. chunks is typically a
// K·P-way weighted plan (balance.SplitChunks); any partition of the global
// edge range is correct — every triangle is still reported exactly once, by
// the chunk holding its pivot edge.
//
// Sinks, when non-nil in opt, must have one entry per CHUNK (not per
// worker): chunk i's triangles go to Sinks[i] regardless of which runner
// executed it, so listing output concatenated in chunk order is
// deterministic even though the chunk→runner assignment is not. A sink is
// only ever used by one runner at a time (the one executing its chunk), so
// per-sink state needs no locking.
//
// The returned WorkerStats fold each runner's chunks (wall summed, range =
// hull); ChunkStats align with chunks index-wise, zero-valued for chunks a
// cancelled or failed run never started.
//
// Scan-source semantics are identical to RunRanges: every runner holds one
// handle for its whole lifetime, opened up front, so a shared source's
// quorum-based rounds keep doing exactly one physical scan per round — a
// runner between chunks looks no different to the broadcaster than a runner
// between memory windows. A runner that finds the queue empty closes its
// handle, shrinking the quorum for the ones still working.
func RunChunks(ctx context.Context, d *graph.Disk, chunks []balance.Range, opt Options) ([]WorkerStat, []ChunkStat, ioacct.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if !d.Meta.Oriented {
		return nil, nil, ioacct.Stats{}, fmt.Errorf("core: RunChunks requires an oriented store")
	}
	if opt.Sinks != nil && len(opt.Sinks) != len(chunks) {
		return nil, nil, ioacct.Stats{}, fmt.Errorf("core: %d sinks for %d chunks (stealing sinks are per chunk)", len(opt.Sinks), len(chunks))
	}
	workers := opt.Workers
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if workers < 1 {
		workers = 1
	}
	kernel, err := scan.NewKernel(opt.Kernel)
	if err != nil {
		return nil, nil, ioacct.Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, ioacct.Stats{}, err
	}
	src, err := opt.NewSource(opt.Scan.Resolve(workers), d, scan.Config{
		BufBytes: opt.BufBytes,
		Counter:  ioacct.NewCounter(0),
		Ctx:      ctx,
	})
	if err != nil {
		return nil, nil, ioacct.Stats{}, err
	}
	defer src.Close()

	// One handle per pool runner, opened before any runner starts: the
	// same deterministic quorum rule as RunRanges.
	counters := make([]*ioacct.Counter, workers)
	handles := make([]scan.Handle, workers)
	for i := range handles {
		counters[i] = ioacct.NewCounter(0)
		h, err := src.Handle(counters[i])
		if err != nil {
			for _, open := range handles[:i] {
				open.Close()
			}
			return nil, nil, src.IO(), err
		}
		handles[i] = h
	}

	queue := sched.NewQueue(chunks)
	ledgers := make([]sched.Ledger, workers)
	chunkStats := make([]ChunkStat, len(chunks))
	errs := make([]error, workers)
	cur := obs.CursorFrom(ctx)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Closing the handle as soon as this runner is out of work
			// shrinks the shared source's round quorum, exactly like a
			// static runner finishing its final pass.
			defer handles[i].Close()
			// One context per pool runner stamps its chunk spans with the
			// runner index; the per-chunk span recording in
			// mgt.(*Runner).RunRange is allocation-free.
			rctx := ctx
			if cur.T != nil {
				rctx = obs.ContextWithCursor(ctx, cur.WithWorker(i))
			}
			ledgers[i].Worker = i
			runner, err := mgt.NewRunner(d, mgt.Config{
				MemEdges: opt.MemEdges,
				Counter:  counters[i],
				Source:   handles[i],
				Kernel:   kernel,
			})
			if err != nil {
				errs[i] = err
				queue.Stop()
				return
			}
			for {
				ci, rng, ok := queue.Next()
				if !ok {
					return
				}
				var sink mgt.Sink
				if opt.Sinks != nil {
					sink = opt.Sinks[ci]
				}
				st, err := runner.RunRange(rctx, rng, sink)
				chunkStats[ci] = ChunkStat{Chunk: ci, Worker: i, Range: rng, Stats: st}
				ledgers[i].Fold(rng, st)
				if err != nil {
					errs[i] = err
					// Stop the drain; runners mid-chunk finish (or hit the
					// same cancellation) on their own.
					queue.Stop()
					return
				}
			}
		}(i)
	}
	wg.Wait()

	stats := make([]WorkerStat, workers)
	for i, l := range ledgers {
		stats[i] = WorkerStat{
			Worker: l.Worker,
			Range:  balance.Range{Lo: l.Lo, Hi: l.Hi},
			Chunks: l.Chunks,
			Stats:  l.Stats,
		}
	}
	// A cancelled run reports the bare ctx.Err() regardless of which runner
	// (or the scan source) surfaced the cancellation first.
	if err := ctx.Err(); err != nil {
		return stats, chunkStats, src.IO(), err
	}
	for _, err := range errs {
		if err != nil {
			return stats, chunkStats, src.IO(), err
		}
	}
	return stats, chunkStats, src.IO(), nil
}
