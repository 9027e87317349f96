package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdtl"
	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// layerReps is how many times each layer probe repeats; the per-layer
// timings are medians over the repetitions.
const layerReps = 3

// layers is the traced run: it times the benchmark's calls into each
// layer's public functions with spans and reads the layer's own counters.
// A layer the workload does not exercise reports 0.
func (b *bench) layers(ctx context.Context, seconds float64) (map[string]float64, error) {
	e := b.e
	m := make(map[string]float64)
	d, err := graph.Open(e.g.OrientedBase())
	if err != nil {
		return nil, err
	}
	defaults, err := e.coreOptions()
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"graph", func() error { return b.graphLayer(d, m) }},
		{"orient", func() error { return b.orientLayer(m) }},
		{"balance", func() error { return b.balanceLayer(d, defaults, m) }},
		{"scan.kernel", func() error { return b.kernelLayer(d, defaults, m) }},
		// mgt records each runner's pass count for scan.source.
		{"mgt", func() error { return b.mgtLayer(ctx, d, defaults, m) }},
		{"scan.source", func() error { return b.sourceLayer(ctx, d, defaults, m) }},
		{"core", func() error { return b.coreLayer(ctx, d, defaults, m) }},
		{"cluster", func() error { return b.clusterLayer(ctx, m) }},
		{"live", func() error { return b.liveLayer(ctx, m) }},
		{"service", func() error { return b.serviceLayer(ctx, seconds, m) }},
		{"list", func() error { return b.listLayer(ctx, m) }},
	}
	for _, s := range steps {
		b.layer = b.trace.Begin("layer."+s.name, obs.NoSpan)
		err := s.run()
		b.trace.End(b.layer)
		b.layer = obs.NoSpan
		if err != nil {
			return nil, err
		}
	}
	// Outside any layer span: the untraced side runs with the tracer off.
	if err := b.traceOverhead(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// coreOptions is the engine configuration the workload's public Count runs
// with, so the probes measure whatever the public defaults are. The scan
// source and scheduler are taken from the warm-up Result, which reports
// them resolved. The kernel and the balance strategy mirror pdtl's
// Options.toCore at its defaults: a Result does not report them.
func (e *env) coreOptions() (core.Options, error) {
	src, err := scan.ParseSource(e.warm.ScanSource)
	if err != nil {
		return core.Options{}, err
	}
	kernel, err := scan.ParseKernel("")
	if err != nil {
		return core.Options{}, err
	}
	mode, err := sched.ParseMode(e.warm.Sched)
	if err != nil {
		return core.Options{}, err
	}
	format, err := graph.ParseFormat(e.w.format)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workers: workers, MemEdges: e.opt.MemEdges, Strategy: balance.InDegree,
		Scan: src, Kernel: kernel, Sched: mode, Store: format,
	}, nil
}

// timed runs f reps times, each inside a span named name.
func (b *bench) timed(name string, reps int, f func() error) error {
	for i := 0; i < reps; i++ {
		sp := b.begin(name)
		err := f()
		b.trace.End(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// spanMedian is the median duration of the recorded spans named name.
func (b *bench) spanMedian(name string) float64 {
	var ds []float64
	for _, sp := range b.trace.Spans() {
		if sp.Name == name {
			ds = append(ds, float64(sp.Dur)/1e9)
		}
	}
	return median(ds)
}

// graphLayer: open of the unoriented store, and one full decode of every
// compressed list with no intersection.
func (b *bench) graphLayer(d *graph.Disk, m map[string]float64) error {
	if err := b.timed("graph.open", 2*layerReps, func() error {
		_, err := graph.Open(b.e.coldBase)
		return err
	}); err != nil {
		return err
	}
	m["graph.open_s"] = b.spanMedian("graph.open")
	size, err := graph.StoreAdjBytes(d.Base)
	if err != nil {
		return err
	}
	m["graph.bytes_per_edge"] = float64(size) / float64(d.Meta.AdjEntries)
	b.x.check(b.t, "graph.adj_bytes", uint64(size))
	if d.Format() != graph.FormatCompressed {
		m["graph.decode_s"], m["graph.segments"] = 0, 0
		return nil
	}
	f, err := d.OpenAdjData()
	if err != nil {
		return err
	}
	data := make([]byte, d.AdjBytes())
	_, err = io.ReadFull(f, data)
	f.Close()
	if err != nil {
		return err
	}
	var segments, entries uint64
	err = b.timed("graph.decode", layerReps, func() error {
		segments, entries = 0, 0
		sc, err := d.NewCompressedMemScan(data)
		if err != nil {
			return err
		}
		defer sc.Close()
		dst := make([]graph.Vertex, 0, graph.SegmentEntries)
		for {
			_, cl, ok := sc.NextCompressed()
			if !ok {
				break
			}
			it := cl.Segments()
			for {
				seg, ok := it.Next()
				if !ok {
					break
				}
				out, _, err := graph.DecodeSegmentFast(seg, dst[:0])
				if err != nil {
					return err
				}
				segments++
				entries += uint64(len(out))
			}
			if err := it.Err(); err != nil {
				return err
			}
		}
		return sc.Err()
	})
	if err != nil {
		return err
	}
	if entries != d.Meta.AdjEntries {
		b.t.fail("graph decode: %d entries, store holds %d", entries, d.Meta.AdjEntries)
	}
	m["graph.decode_s"] = b.spanMedian("graph.decode")
	m["graph.segments"] = float64(segments)
	b.x.check(b.t, "graph.segments", segments)
	return nil
}

// orientLayer: OrientFormat of the unoriented store into a scratch store.
func (b *bench) orientLayer(m map[string]float64) error {
	dir := filepath.Join(b.e.dir, "orient-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	format, err := graph.ParseFormat(b.e.w.format)
	if err != nil {
		return err
	}
	var written int64
	if err := b.timed("orient", layerReps, func() error {
		res, err := orient.OrientFormat(b.e.coldBase, filepath.Join(dir, "g"), workers, format)
		if err == nil {
			written = res.IO.BytesWritten
		}
		return err
	}); err != nil {
		return err
	}
	m["orient.s"] = b.spanMedian("orient")
	m["orient.bytes_written"] = float64(written)
	b.x.check(b.t, "orient.bytes_written", uint64(written))
	return nil
}

// plan computes the default scheduler's plan for the oriented store.
func plan(d *graph.Disk, opt core.Options) (balance.Plan, error) {
	if opt.Sched == sched.Stealing {
		return core.PlanChunks(d, d.Base, opt.Workers, 0, opt.Strategy)
	}
	return core.Plan(d, d.Base, opt.Workers, opt.Strategy)
}

func (b *bench) balanceLayer(d *graph.Disk, opt core.Options, m map[string]float64) error {
	var p balance.Plan
	if err := b.timed("balance.plan", 2*layerReps, func() error {
		var err error
		p, err = plan(d, opt)
		return err
	}); err != nil {
		return err
	}
	m["balance.plan_s"] = b.spanMedian("balance.plan")
	m["balance.imbalance"] = p.Imbalance()
	return nil
}

// kernelLayer: the default count kernel over every oriented pivot pair,
// both lists held in memory.
func (b *bench) kernelLayer(d *graph.Disk, opt core.Options, m map[string]float64) error {
	k, err := scan.NewKernel(opt.Kernel)
	if err != nil {
		return err
	}
	ck, ok := k.(scan.CountKernel)
	if !ok {
		return fmt.Errorf("default kernel %s has no count path", opt.Kernel)
	}
	csr, err := d.LoadCSR()
	if err != nil {
		return err
	}
	var tri, cmp uint64
	if err := b.timed("scan.kernel", layerReps, func() error {
		tri, cmp = 0, 0
		for u := 0; u < csr.NumVertices(); u++ {
			nu := csr.Neighbors(graph.Vertex(u))
			for _, v := range nu {
				c, s := ck.Count(nu, csr.Neighbors(v))
				tri += c
				cmp += s
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if tri != b.ref.triangles {
		b.t.fail("kernel over memory: %d triangles, reference %d", tri, b.ref.triangles)
	}
	m["scan.kernel_s"] = b.spanMedian("scan.kernel")
	m["scan.kernel_cmp_ops"] = float64(cmp)
	b.x.check(b.t, "scan.kernel_cmp_ops", cmp)
	return nil
}

// mgtLayer: one Runner.RunRange per plan range, run one after another so
// each range's stats are its own, counting only (nil sink).
func (b *bench) mgtLayer(ctx context.Context, d *graph.Disk, opt core.Options, m map[string]float64) error {
	p, err := plan(d, opt)
	if err != nil {
		return err
	}
	k, err := scan.NewKernel(opt.Kernel)
	if err != nil {
		return err
	}
	var total mgt.Stats
	var ioS, cpuS []float64
	for rep := 0; rep < layerReps; rep++ {
		var ioTime, cpuTime time.Duration
		total = mgt.Stats{}
		b.passes = b.passes[:0]
		for _, rng := range p.Ranges {
			c := ioacct.NewCounter(0)
			src, err := scan.New(opt.Scan, d, scan.Config{Ctx: ctx})
			if err != nil {
				return err
			}
			h, err := src.Handle(c)
			if err != nil {
				src.Close()
				return err
			}
			r, err := mgt.NewRunner(d, mgt.Config{MemEdges: opt.MemEdges, Counter: c, Source: h, Kernel: k})
			if err == nil {
				sp := b.begin("mgt.run_range")
				var st mgt.Stats
				st, err = r.RunRange(ctx, rng, nil)
				b.trace.End(sp)
				total = total.Add(st)
				ioTime += st.IO.IOTime()
				cpuTime += st.CPUTime()
				b.passes = append(b.passes, st.Passes)
				r.Close()
			}
			h.Close()
			src.Close()
			if err != nil {
				return fmt.Errorf("mgt: %w", err)
			}
		}
		ioS = append(ioS, secs(ioTime))
		cpuS = append(cpuS, secs(cpuTime))
		if total.Triangles != b.ref.triangles {
			b.t.fail("mgt ranges: %d triangles, reference %d", total.Triangles, b.ref.triangles)
		}
		for name, v := range map[string]uint64{
			"mgt.passes":           uint64(total.Passes),
			"mgt.cmp_ops":          total.CmpOps,
			"mgt.intersections":    total.Intersections,
			"mgt.large_vertices":   total.LargeVertices,
			"mgt.segments_skipped": total.SegmentsSkipped,
			"mgt.word_ops":         total.WordOps,
			"mgt.fast_decodes":     total.FastDecodes,
			"mgt.bytes_read":       uint64(total.IO.BytesRead),
		} {
			m[name] = float64(v)
			b.x.check(b.t, name, v)
		}
	}
	m["mgt.io_s"] = median(ioS)
	m["mgt.cpu_s"] = median(cpuS)
	m["mgt.triangles_per_cmp"] = float64(total.Triangles) / float64(max(total.CmpOps, 1))
	m["mgt.decodes_per_segment"] = 0
	if segs := m["graph.segments"]; segs > 0 {
		m["mgt.decodes_per_segment"] = float64(total.FastDecodes) / segs
	}
	return nil
}

// sourceLayer: the default scan source with one handle per plan range,
// each draining as many full passes as its runner makes, concurrently (a
// shared source needs its whole quorum), with no intersections.
func (b *bench) sourceLayer(ctx context.Context, d *graph.Disk, opt core.Options, m map[string]float64) error {
	var bytes int64
	err := b.timed("scan.source", layerReps, func() error {
		src, err := scan.New(opt.Scan, d, scan.Config{Ctx: ctx})
		if err != nil {
			return err
		}
		defer src.Close()
		counters := make([]*ioacct.Counter, len(b.passes))
		errs := make([]error, len(b.passes))
		handles := make([]scan.Handle, len(b.passes))
		for i := range handles {
			counters[i] = ioacct.NewCounter(0)
			if handles[i], err = src.Handle(counters[i]); err != nil {
				for _, h := range handles[:i] {
					h.Close()
				}
				return err
			}
		}
		var wg sync.WaitGroup
		for i, h := range handles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer h.Close()
				errs[i] = drain(h, b.passes[i], opt.MemEdges)
			}()
		}
		wg.Wait()
		bytes = src.IO().BytesRead
		for i, err := range errs {
			if err != nil {
				return err
			}
			bytes += counters[i].Snapshot().BytesRead
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["scan.source_s"] = b.spanMedian("scan.source")
	m["scan.source_bytes"] = float64(bytes)
	b.x.check(b.t, "scan.source_bytes", uint64(bytes))
	return nil
}

func drain(h scan.Handle, passes, maxList int) error {
	for p := 0; p < passes; p++ {
		sc, err := h.Scan(maxList)
		if err != nil {
			return err
		}
		for {
			if _, _, ok := sc.Next(); !ok {
				break
			}
		}
		err = sc.Err()
		if cerr := sc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// coreLayer: the engine's calculation phase over the default scheduler's
// plan, all runners at once.
func (b *bench) coreLayer(ctx context.Context, d *graph.Disk, opt core.Options, m map[string]float64) error {
	p, err := plan(d, opt)
	if err != nil {
		return err
	}
	var straggler, idle, imbalance []float64
	err = b.timed("core.calc", layerReps, func() error {
		start := time.Now()
		var stats []core.WorkerStat
		var err error
		if opt.Sched == sched.Stealing {
			stats, _, _, err = core.RunChunks(ctx, d, p.Ranges, opt)
		} else {
			stats, _, err = core.RunRanges(ctx, d, p.Ranges, opt)
		}
		wall := time.Since(start)
		if err != nil {
			return err
		}
		var tri uint64
		var sum, slowest time.Duration
		var idleSum time.Duration
		for _, w := range stats {
			tri += w.Stats.Triangles
			sum += w.Stats.Wall
			slowest = max(slowest, w.Stats.Wall)
			idleSum += wall - w.Stats.Wall
		}
		if tri != b.ref.triangles {
			b.t.fail("core calc: %d triangles, reference %d", tri, b.ref.triangles)
		}
		mean := sum / time.Duration(len(stats))
		straggler = append(straggler, secs(slowest-mean))
		idle = append(idle, secs(idleSum))
		imbalance = append(imbalance, float64(slowest)/float64(max(mean, 1)))
		return nil
	})
	if err != nil {
		return err
	}
	m["core.calc_s"] = b.spanMedian("core.calc")
	m["sched.straggler_s"] = median(straggler)
	m["sched.idle_s"] = median(idle)
	m["sched.worker_imbalance"] = median(imbalance)
	return nil
}

func (b *bench) clusterLayer(ctx context.Context, m map[string]float64) error {
	var copyS, copyBytes, calc, netBytes, overhead []float64
	for i := 0; i < layerReps; i++ {
		sp := b.begin("cluster.count")
		wall, res, err := b.distOnce(ctx)
		b.trace.End(sp)
		if err != nil {
			return err
		}
		var c, slowest time.Duration
		var cb int64
		for _, n := range res.Nodes {
			c += n.CopyTime
			cb += n.CopyBytes
			slowest = max(slowest, n.CalcTime)
		}
		copyS = append(copyS, secs(c))
		copyBytes = append(copyBytes, float64(cb))
		calc = append(calc, secs(slowest))
		netBytes = append(netBytes, float64(res.NetworkBytes))
		overhead = append(overhead, secs(wall-c-slowest))
	}
	m["cluster.copy_s"] = median(copyS)
	m["cluster.copy_bytes"] = median(copyBytes)
	m["cluster.node_calc_s"] = median(calc)
	m["cluster.network_bytes"] = median(netBytes)
	m["cluster.overhead_s"] = median(overhead)
	return nil
}

// liveLayer drives a second live copy directly through LiveGraph, fed the
// same cycle: rounds of compactEvery Apply calls, two overlay counts, and a
// compaction.
func (b *bench) liveLayer(ctx context.Context, m map[string]float64) error {
	e := b.e
	snap := filepath.Join(e.dir, "direct-snapshots")
	if err := os.MkdirAll(snap, 0o755); err != nil {
		return err
	}
	lg, err := pdtl.OpenLive(ctx, e.directBase, e.liveOptions(snap))
	if err != nil {
		return err
	}
	defer lg.Close()
	var k uint64
	for round := 0; round < layerReps; round++ {
		for i := 0; i < compactEvery; i++ {
			ups := updates(e.cycle.batch(k))
			sp := b.begin("live.apply")
			err := lg.Apply(ups)
			b.trace.End(sp)
			if err != nil {
				return fmt.Errorf("live apply batch %d: %w", k, err)
			}
			k++
		}
		if round == 0 {
			delta := uint64(lg.Stats().DeltaEdges)
			m["live.delta_edges"] = float64(delta)
			b.x.check(b.t, "live.delta_edges", delta)
		}
		for i := 0; i < 2; i++ {
			sp := b.begin("live.overlay_count")
			res, err := lg.Count(ctx, e.opt)
			b.trace.End(sp)
			if err != nil {
				return err
			}
			if want := e.cycle.ref(k); res.Triangles != want {
				b.t.fail("live overlay count after %d batches: %d, reference %d", k, res.Triangles, want)
			}
		}
		if err := b.timed("live.compact", 1, func() error { return lg.Compact(ctx) }); err != nil {
			return err
		}
	}
	m["live.apply_s"] = b.spanMedian("live.apply")
	m["live.overlay_count_s"] = b.spanMedian("live.overlay_count")
	m["live.compact_s"] = b.spanMedian("live.compact")
	return nil
}

// serviceLayer runs a short live phase against the HTTP service.
func (b *bench) serviceLayer(ctx context.Context, seconds float64, m map[string]float64) error {
	cr, err := b.churn(ctx, time.Duration(seconds*liveShare/2*float64(time.Second)))
	if err != nil {
		return err
	}
	m["service.overhead_s"] = median(cr.count) - m["live.overlay_count_s"]
	m["service.queue_wait_s"] = cr.queueWait
	m["service.cache_hit_ratio"] = float64(cr.countHits) / float64(max(cr.countHits+cr.countRuns, 1))
	m["service.shed"] = float64(cr.sheds.Load())
	m["service.apply_tail_s"], _ = tail(cr.apply)
	return nil
}

// listLayer: the listing's cost over a count of the same graph.
func (b *bench) listLayer(ctx context.Context, m map[string]float64) error {
	var lists, counts []float64
	for i := 0; i < layerReps; i++ {
		d, err := b.listOnce(ctx)
		if err != nil {
			return err
		}
		lists = append(lists, secs(d))
		if d, err = b.countOnce(ctx); err != nil {
			return err
		}
		counts = append(counts, secs(d))
	}
	m["list.materialize_s"] = median(lists) - median(counts)
	return nil
}

// traceOverhead compares warm counts with the obs.Trace span recorder on
// and off, alternating to cancel drift.
func (b *bench) traceOverhead(ctx context.Context, m map[string]float64) error {
	var on, off []float64
	tr := b.trace
	for i := 0; i < 2*layerReps+1; i++ {
		b.trace = nil
		d, err := b.countOnce(ctx)
		b.trace = tr
		if err != nil {
			return err
		}
		off = append(off, secs(d))
		if d, err = b.countOnce(ctx); err != nil {
			return err
		}
		on = append(on, secs(d))
	}
	m["obs.trace_overhead"] = median(on)/median(off) - 1
	return nil
}
