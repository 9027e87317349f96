package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pdtl"
	"pdtl/internal/obs"
)

// tally counts attempted and failed operations. Errors, non-2xx replies
// (503 sheds included), and wrong results all count as failed.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// exact pins a counter that must repeat exactly: the first observation is
// kept and every later one must match it.
type exact struct {
	mu   sync.Mutex
	vals map[string]uint64
}

func (x *exact) check(t *tally, name string, v uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.vals == nil {
		x.vals = make(map[string]uint64)
	}
	if old, ok := x.vals[name]; ok && old != v {
		t.fail("%s drifted within the run: %d then %d", name, old, v)
		return
	}
	x.vals[name] = v
}

// bench is one run's measuring state over a set-up env.
type bench struct {
	e   *env
	ref *reference
	t   *tally
	x   *exact
	// trace records the benchmark's spans (nil records nothing, which is
	// how the untraced side of obs.trace_overhead is timed); layer is the
	// open layer span new spans are recorded under.
	trace *obs.Trace
	layer obs.SpanID
	// passes[i] is how many passes the runner of plan range i makes (set
	// by the traced run's mgt probe for the scan source probe).
	passes []int
}

// begin opens a span named name under the open layer span.
func (b *bench) begin(name string) obs.SpanID { return b.trace.Begin(name, b.layer) }

// coldOnce is one cold_s sample: a fresh Open of the unoriented store and
// its first Count (orient + plan + calc).
func (b *bench) coldOnce(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	g, err := pdtl.Open(b.e.coldBase)
	if err != nil {
		return 0, err
	}
	res, err := g.Count(ctx, b.e.opt)
	d := time.Since(start)
	g.Close()
	if err != nil {
		return 0, err
	}
	return d, b.checkCount("cold", res)
}

func (b *bench) checkCount(what string, res *pdtl.Result) error {
	if res.Triangles != b.ref.triangles {
		return fmt.Errorf("%s: %d triangles, reference %d", what, res.Triangles, b.ref.triangles)
	}
	var passes uint64
	for _, w := range res.Workers {
		passes += uint64(w.Passes)
	}
	b.x.check(b.t, "count.passes", passes)
	return nil
}

// countOnce is one count_s sample: a warm Count on the main handle.
func (b *bench) countOnce(ctx context.Context) (time.Duration, error) {
	sp := b.begin("count")
	start := time.Now()
	res, err := b.e.g.Count(ctx, b.e.opt)
	d := time.Since(start)
	b.trace.End(sp)
	if err != nil {
		return 0, err
	}
	return d, b.checkCount("count", res)
}

// listOnce is one list_s sample: ListFile into the run directory, then the
// file is checked order-normalized against the baseline listing.
func (b *bench) listOnce(ctx context.Context) (time.Duration, error) {
	path := filepath.Join(b.e.dir, "listing.bin")
	defer os.Remove(path)
	start := time.Now()
	res, err := b.e.g.ListFile(ctx, path, b.e.opt)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	fp, err := fingerprintFile(path)
	if err != nil {
		return 0, err
	}
	if fp != b.ref.listing || res.Triangles != fp.N {
		return 0, fmt.Errorf("listing: %d triangles (result says %d) differ from the %d-triangle baseline listing", fp.N, res.Triangles, b.ref.listing.N)
	}
	return d, nil
}

// distOnce is one dist_count_s sample: CountDistributed with the master
// and the loopback worker node, one runner each.
func (b *bench) distOnce(ctx context.Context) (time.Duration, *pdtl.ClusterResult, error) {
	start := time.Now()
	res, err := b.e.g.CountDistributed(ctx, b.e.pool.Addrs(), b.e.copt)
	d := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if res.Triangles != b.ref.triangles {
		return 0, nil, fmt.Errorf("distributed count: %d triangles, reference %d", res.Triangles, b.ref.triangles)
	}
	if len(res.Failures) > 0 {
		return 0, nil, fmt.Errorf("distributed count recovered from %d node failures: %s", len(res.Failures), res.Failures[0].Err)
	}
	var copied uint64
	for _, n := range res.Nodes {
		copied += uint64(n.CopyBytes)
	}
	b.x.check(b.t, "cluster.copy_bytes", copied)
	b.x.check(b.t, "cluster.network_bytes", uint64(res.NetworkBytes))
	return d, res, nil
}

// op is one engine operation sampled in the engine phase.
type op struct {
	name    string
	share   float64 // of the engine phase's time
	min     int     // samples needed however long they take
	run     func(context.Context) (time.Duration, error)
	samples []float64
	used    time.Duration
}

// runOps interleaves the ops until the deadline, always running the op
// that has used the smallest part of its time share, and then until every
// op has its minimum sample count, for at most as long again.
func runOps(ctx context.Context, t *tally, ops []*op, deadline time.Time) error {
	hardStop := deadline.Add(time.Until(deadline))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		now := time.Now()
		var next *op
		for _, o := range ops {
			if now.After(deadline) && len(o.samples) >= o.min {
				continue
			}
			if next == nil || float64(o.used)/o.share < float64(next.used)/next.share {
				next = o
			}
		}
		if next == nil {
			return nil
		}
		if now.After(hardStop) {
			return fmt.Errorf("%s reached only %d of %d samples in the time allowed", next.name, len(next.samples), next.min)
		}
		start := time.Now()
		d, err := next.run(ctx)
		next.used += time.Since(start)
		if err != nil {
			t.fail("%s: %v", next.name, err)
			if t.failed.Load() > 50 {
				return fmt.Errorf("too many failures, last: %s: %v", next.name, err)
			}
			continue
		}
		t.ok()
		next.samples = append(next.samples, secs(d))
	}
}

// churnResult holds the live phase's samples.
type churnResult struct {
	apply, count, compact []float64
	// countRuns and countHits split the /count replies by origin.
	countRuns, countHits int
	sheds                atomic.Int64
	queueWait            float64 // mean admission wait (pdtl_queue_wait_seconds)
	batches              uint64
}

type countReply struct {
	Triangles uint64 `json:"triangles"`
	Origin    string `json:"origin"`
	MutGen    uint64 `json:"mut_gen"`
}

// churn runs the live phase for dur: one client POSTs the cycle's batches
// in order (closed loop), forcing a compaction after every compactEvery-th
// batch, while the other GETs /count, which every batch invalidates. Each
// count is checked against the reference of a generation it can reflect
// (see checkLive).
func (b *bench) churn(ctx context.Context, dur time.Duration) (*churnResult, error) {
	e := b.e
	var (
		r       churnResult
		acked   atomic.Uint64 // batches acknowledged
		posted  atomic.Uint64 // batches whose POST has started
		wg      sync.WaitGroup
		postErr error
		// newGen wakes the counting client after each acknowledged batch.
		newGen = make(chan struct{}, 1)
	)
	waitBefore := e.svc.Metrics().QueueWait.Sum()
	waitsBefore := e.svc.Metrics().QueueWait.Count()
	deadline := time.Now().Add(dur)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var k uint64
		for time.Now().Before(deadline) && ctx.Err() == nil {
			body, err := json.Marshal(e.cycle.batch(k))
			if err != nil {
				postErr = err
				return
			}
			posted.Store(k + 1)
			var reply struct {
				MutGen uint64 `json:"mut_gen"`
			}
			sp := b.begin("service.apply")
			start := time.Now()
			status, err := e.call(ctx, http.MethodPost, "/v1/graphs/"+liveName+"/edges", body, &reply)
			d := time.Since(start)
			b.trace.End(sp)
			switch {
			case status == http.StatusServiceUnavailable:
				r.sheds.Add(1)
				b.t.fail("apply batch %d: shed", k)
				posted.Store(k) // not applied; resend it
				continue
			case err != nil:
				// Any other rejection leaves the cycle's position unknown.
				b.t.fail("apply batch %d: %v", k, err)
				postErr = err
				return
			case reply.MutGen != k+1:
				b.t.fail("apply batch %d: mut_gen %d, want %d", k, reply.MutGen, k+1)
			default:
				b.t.ok()
			}
			r.apply = append(r.apply, secs(d))
			k++
			acked.Store(k)
			select {
			case newGen <- struct{}{}:
			default:
			}
			if k%compactEvery == 0 {
				sp := b.begin("service.compact")
				start := time.Now()
				_, err := e.call(ctx, http.MethodPost, "/v1/graphs/"+liveName+"/compact", nil, nil)
				d := time.Since(start)
				b.trace.End(sp)
				if err != nil {
					b.t.fail("compact after batch %d: %v", k, err)
					continue
				}
				b.t.ok()
				r.compact = append(r.compact, secs(d))
			}
		}
	}()
	go func() {
		defer wg.Done()
		timeout := time.NewTimer(time.Until(deadline))
		defer timeout.Stop()
		var seen uint64
		for ctx.Err() == nil && time.Now().Before(deadline) {
			// Count only once a batch has landed since the last count, so
			// every count runs over a changed overlay instead of hitting
			// the result cache.
			for acked.Load() <= seen {
				select {
				case <-newGen:
				case <-timeout.C:
					return
				case <-ctx.Done():
					return
				}
			}
			lo := acked.Load()
			var reply countReply
			sp := b.begin("service.count")
			start := time.Now()
			status, err := e.call(ctx, http.MethodGet, "/v1/graphs/"+liveName+"/count", nil, &reply)
			d := time.Since(start)
			b.trace.End(sp)
			hi := posted.Load()
			if status == http.StatusServiceUnavailable {
				r.sheds.Add(1)
			}
			if err != nil {
				b.t.fail("live count: %v", err)
				continue
			}
			if err := b.checkLive(reply, lo, hi); err != nil {
				b.t.fail("%v", err)
				continue
			}
			b.t.ok()
			// The run may have counted a batch acknowledged only after the
			// GET was sent; wait for one past it.
			seen = max(lo, reply.MutGen)
			if reply.Origin == "cache" {
				r.countHits++
			} else {
				r.countRuns++
			}
			r.count = append(r.count, secs(d))
		}
	}()
	wg.Wait()
	r.batches = acked.Load()
	if n := e.svc.Metrics().QueueWait.Count() - waitsBefore; n > 0 {
		r.queueWait = (e.svc.Metrics().QueueWait.Sum() - waitBefore) / float64(n)
	}
	if postErr != nil {
		return &r, postErr
	}
	return &r, ctx.Err()
}

// checkLive checks a live count against the generations the counted view
// can be at. The lowest is lo, every batch acknowledged before the GET was
// sent. The highest is hi, every batch whose POST had started when the
// reply arrived, and at most one past the reply's mut_gen: the service
// applies a batch before it bumps mut_gen, and reads mut_gen after the
// run, so with one writer the view is at most one batch ahead of it.
func (b *bench) checkLive(reply countReply, lo, hi uint64) error {
	if reply.MutGen < lo || reply.MutGen > hi {
		return fmt.Errorf("live count: mut_gen %d outside [%d, %d]", reply.MutGen, lo, hi)
	}
	hi = min(hi, reply.MutGen+1)
	for k := lo; k <= hi; k++ {
		if b.e.cycle.ref(k) == reply.Triangles {
			return nil
		}
	}
	return fmt.Errorf("live count: %d triangles match no generation in [%d, %d] (reference at mut_gen %d: %d)",
		reply.Triangles, lo, hi, reply.MutGen, b.e.cycle.ref(reply.MutGen))
}

// liveShare is the part of the run's seconds given to the live phase; the
// rest goes to the engine ops.
const liveShare = 0.4

// endToEnd measures every end-to-end metric with tracing off.
func (b *bench) endToEnd(ctx context.Context, seconds float64, setupS float64) (map[string]float64, error) {
	total := time.Duration(seconds * float64(time.Second))
	list := &op{name: "list", share: 0.30, min: 7, run: b.listOnce}
	count := &op{name: "count", share: 0.25, min: 7, run: b.countOnce}
	cold := &op{name: "cold", share: 0.20, min: 5, run: b.coldOnce}
	dist := &op{name: "dist", share: 0.25, min: 5, run: func(ctx context.Context) (time.Duration, error) {
		d, _, err := b.distOnce(ctx)
		return d, err
	}}
	ops := []*op{cold, count, list, dist}
	engine := time.Duration(float64(total) * (1 - liveShare))
	if err := runOps(ctx, b.t, ops, time.Now().Add(engine)); err != nil {
		return nil, err
	}
	enginePeak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	cr, err := b.churn(ctx, total-engine)
	if err != nil {
		return nil, err
	}
	if len(cr.apply) == 0 || len(cr.count) == 0 || len(cr.compact) == 0 {
		return nil, fmt.Errorf("live phase too short: %d applies, %d counts, %d compactions", len(cr.apply), len(cr.count), len(cr.compact))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	countS := median(count.samples)
	liveTail, livePct := tail(cr.count)
	for _, o := range []struct {
		name    string
		samples []float64
	}{{"cold", cold.samples}, {"count", count.samples}, {"list", list.samples}, {"dist", dist.samples},
		{"apply", cr.apply}, {"live_count", cr.count}, {"compact", cr.compact}} {
		fmt.Fprintf(os.Stderr, "%-10s n=%-5d %s\n", o.name, len(o.samples), quartiles(o.samples))
	}
	fmt.Fprintf(os.Stderr, "live count tail p%g; %d batches, %d live counts from cache; engine-phase peak RSS %.1f MiB\n",
		livePct, cr.batches, cr.countHits, enginePeak)
	return map[string]float64{
		"setup_s":           setupS,
		"cold_s":            median(cold.samples),
		"count_s":           countS,
		"count_edges_per_s": float64(b.e.edges) / countS,
		"list_s":            median(list.samples),
		"dist_count_s":      median(dist.samples),
		"apply_s":           median(cr.apply),
		"live_count_s":      median(cr.count),
		"live_count_tail_s": liveTail,
		"compact_s":         median(cr.compact),
		"peak_rss_mb":       rss,
	}, nil
}
