package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pdtl"
	"pdtl/internal/baseline"
	"pdtl/internal/graph"
	"pdtl/internal/service"
)

// workers is P for every run: the benchmark host has two cores, and the
// distributed runs split the same two runners over the master and one
// loopback worker node.
const workers = 2

// workload is one seeded input family. Workloads pin only the worker
// count, the memory budget, and the store format; scan source, kernel, and
// scheduler stay at the public defaults, so a change to a default is
// measured and a deleted variant does not break the benchmark.
type workload struct {
	name   string
	format string
	// tight selects the paper's tight budget (|E*|/(16·P) entries per
	// worker, at least 2·d*max) instead of one holding the whole oriented
	// graph.
	tight bool
	// build writes the unoriented store at base from the seed and returns
	// one half-period of the live phase's churn trace: the trace is
	// replayed forward and then inverted, so it cycles without running dry.
	build func(base string, seed int64) ([]pdtl.StreamBatch, error)
}

var workloads = []*workload{
	{name: "inmem-dense", format: "plain", build: buildRMAT},
	{name: "ooc-skew", format: "compressed", tight: true, build: buildSkew},
	{name: "live-churn", format: "plain", build: buildChurn},
}

// The churn shape is the same on every workload and is taken from the
// repository's own churn tools rather than tuned: a trace is pdtl-gen
// stream's default of 10 batches of 100 updates with 30% deletes, and a
// compaction is forced after every 1000 updates, the burst BenchChurnJSON
// (pdtl-bench -churn) applies by default before it compacts.
const (
	churnBatches    = 10
	churnBatchSize  = 100
	churnDeleteFrac = 0.3
	// compactEvery is 1000 updates in batches. It equals the trace length,
	// so compactions fall on the cycle's turning points and the delta
	// between two of them is the whole trace, never empty.
	compactEvery = 1000 / churnBatchSize
)

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildRMAT writes an R-MAT graph, scale 16, edge factor 16. R-MAT has no
// stream generator, so its trace is built here in the stream's shape:
// each batch deletes a seeded sample of the graph's own edges and inserts
// uniformly random vertex pairs that are not edges, as BenchChurnJSON's
// burst does. No edge is touched twice in the trace, so every batch is
// valid where it lands.
func buildRMAT(base string, seed int64) ([]pdtl.StreamBatch, error) {
	if _, err := pdtl.GenerateRMAT(base, 16, 16, seed); err != nil {
		return nil, err
	}
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	csr, err := d.LoadCSR()
	if err != nil {
		return nil, err
	}
	nDel := int(math.Round(churnBatchSize * churnDeleteFrac))
	rng := rand.New(rand.NewSource(seed))
	n := uint32(csr.NumVertices())
	touched := make(map[[2]uint32]bool, churnBatches*churnBatchSize)
	// pick draws an untouched vertex pair, present or absent as asked.
	pick := func(present bool) [2]uint32 {
		for {
			var u, v uint32
			if present {
				pos := uint64(rng.Int63n(int64(len(csr.Adj))))
				u, v = d.VertexAt(pos), csr.Adj[pos]
			} else {
				u, v = rng.Uint32()%n, rng.Uint32()%n
			}
			if u > v {
				u, v = v, u
			}
			e := [2]uint32{u, v}
			if u == v || touched[e] || csr.HasEdge(u, v) != present {
				continue
			}
			touched[e] = true
			return e
		}
	}
	trace := make([]pdtl.StreamBatch, churnBatches)
	for i := range trace {
		for j := 0; j < churnBatchSize; j++ {
			if j < nDel {
				trace[i].Delete = append(trace[i].Delete, pick(true))
			} else {
				trace[i].Insert = append(trace[i].Insert, pick(false))
			}
		}
	}
	return trace, nil
}

// buildSkew writes the twitter-sim power law (2^15 vertices, 29·n edge
// samples, exponent 1.9) through the stream generator, whose base graph is
// exactly GeneratePowerLaw's, so the live phase replays a genuine trace.
func buildSkew(base string, seed int64) ([]pdtl.StreamBatch, error) {
	return buildStream(base, pdtl.StreamParams{N: 1 << 15, M: 29 << 15, Exponent: 1.9, Seed: seed})
}

// buildChurn writes pdtl-gen stream's default graph shape (10 edge samples
// per vertex, exponent 2.5) at 2^14 vertices instead of the default 1000.
// At 1000 vertices every operation took a few milliseconds, mostly file
// and socket calls, and its median moved up to 18% between runs; at 2^14
// each takes tens of milliseconds of counting and sorting, and stays
// steady, while a live count is still short beside a compaction.
func buildChurn(base string, seed int64) ([]pdtl.StreamBatch, error) {
	return buildStream(base, pdtl.StreamParams{N: 1 << 14, M: 10 << 14, Exponent: 2.5, Seed: seed})
}

func buildStream(base string, p pdtl.StreamParams) ([]pdtl.StreamBatch, error) {
	p.Batches, p.BatchSize, p.DeleteFrac = churnBatches, churnBatchSize, churnDeleteFrac
	var buf bytes.Buffer
	if _, err := pdtl.GenerateStream(base, &buf, "", p); err != nil {
		return nil, err
	}
	return pdtl.ReadStreamTrace(&buf)
}

// cycle is the endless churn built from one trace half-period: batch k of
// the cycle is trace[k] forward, then the inverse batches in reverse order,
// which walk the graph back to the base.
type cycle struct {
	trace []pdtl.StreamBatch
	// refs[g] is the exact triangle count after the first g forward
	// batches (g = 0..len(trace)).
	refs []uint64
}

func (c *cycle) batch(k uint64) pdtl.StreamBatch {
	l := uint64(len(c.trace))
	j := k % (2 * l)
	if j < l {
		return c.trace[j]
	}
	b := c.trace[2*l-1-j]
	return pdtl.StreamBatch{Insert: b.Delete, Delete: b.Insert}
}

// ref is the exact triangle count after k batches of the cycle.
func (c *cycle) ref(k uint64) uint64 {
	l := uint64(len(c.trace))
	j := k % (2 * l)
	if j > l {
		j = 2*l - j
	}
	return c.refs[j]
}

func updates(b pdtl.StreamBatch) []pdtl.LiveUpdate {
	out := make([]pdtl.LiveUpdate, 0, len(b.Insert)+len(b.Delete))
	for _, e := range b.Insert {
		out = append(out, pdtl.LiveUpdate{U: e[0], V: e[1]})
	}
	for _, e := range b.Delete {
		out = append(out, pdtl.LiveUpdate{U: e[0], V: e[1], Del: true})
	}
	return out
}

// reference holds the exact answers every measured result is checked
// against, computed from the generated store by internal/baseline and by
// replaying the churn trace through the exact dynamic counter.
type reference struct {
	triangles uint64
	listing   fingerprint
}

func computeReference(base string, c *cycle) (*reference, error) {
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	csr, err := d.LoadCSR()
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	baseline.ForwardList(csr, func(u, v, w graph.Vertex) { ref.listing.add(u, v, w) })
	ref.triangles = ref.listing.N

	dc, err := pdtl.LoadDynamicCounter(base)
	if err != nil {
		return nil, err
	}
	if dc.Triangles() != ref.triangles {
		return nil, fmt.Errorf("dynamic counter starts at %d triangles, baseline says %d", dc.Triangles(), ref.triangles)
	}
	c.refs = append(c.refs[:0], dc.Triangles())
	for i, b := range c.trace {
		for _, e := range b.Delete {
			if _, err := dc.Delete(e[0], e[1]); err != nil {
				return nil, fmt.Errorf("replay batch %d: %w", i, err)
			}
		}
		for _, e := range b.Insert {
			if _, err := dc.Insert(e[0], e[1]); err != nil {
				return nil, fmt.Errorf("replay batch %d: %w", i, err)
			}
		}
		c.refs = append(c.refs, dc.Triangles())
	}
	return ref, nil
}

// env is one set-up instance of a workload: its stores, the warmed handle,
// the loopback cluster worker, and the HTTP service with the live graph
// registered.
type env struct {
	w     *workload
	dir   string
	base  string
	cycle *cycle
	// coldBase is a link of the unoriented store that each cold run opens
	// afresh (so it orients from scratch); liveBase is the service's copy
	// and directBase the traced run's direct LiveGraph copy.
	coldBase, liveBase, directBase string

	g     *pdtl.Graph
	warm  *pdtl.Result // the warm-up Count's result
	opt   pdtl.Options
	copt  pdtl.ClusterOptions
	edges uint64 // oriented adjacency entries |E*|

	pool   *pdtl.WorkerPool
	svc    *service.Server
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

// liveName is the service's name for the live graph.
const liveName = "g"

// setup builds one instance of w under dir: it generates and writes the
// stores, opens and warms the handle (one discarded Count, which orients
// and plans), starts the loopback cluster worker, and starts the service
// with the live graph registered. Its wall time is one setup_s sample.
func setup(ctx context.Context, w *workload, dir string, seed int64) (*env, error) {
	e := &env{w: w, dir: dir, base: filepath.Join(dir, "g")}
	trace, err := w.build(e.base, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	e.cycle = &cycle{trace: trace}
	for _, c := range []struct {
		sub  string
		dest *string
	}{{"cold", &e.coldBase}, {"live", &e.liveBase}, {"direct", &e.directBase}} {
		if *c.dest, err = linkStore(e.base, filepath.Join(dir, c.sub)); err != nil {
			return nil, err
		}
	}
	if err := e.openHandle(ctx); err != nil {
		e.close()
		return nil, err
	}
	if e.pool, err = pdtl.StartLocalWorkers(1, filepath.Join(dir, "worker")); err != nil {
		e.close()
		return nil, err
	}
	if err := e.startService(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// linkStore hard-links the unoriented store files at base into dir and
// returns the new base path.
func linkStore(base, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(dir, filepath.Base(base))
	for _, p := range []string{graph.MetaPath(base), graph.DegPath(base), graph.AdjPath(base)} {
		if err := os.Link(p, filepath.Join(dir, filepath.Base(p))); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// openHandle opens the main handle and makes the warm-up Count, which
// orients the store and caches the plan. The tight budget depends on the
// orientation's d*max, so it is fixed after the warm-up; the budget never
// changes a count, only how many passes produce it.
func (e *env) openHandle(ctx context.Context) error {
	g, err := pdtl.Open(e.base)
	if err != nil {
		return err
	}
	e.g = g
	e.edges = g.Info().NumEdges
	mem := int(e.edges)
	if e.w.tight {
		mem = max(int(e.edges)/(16*workers), 1)
	}
	e.opt = pdtl.Options{Workers: workers, MemEdges: mem, StoreFormat: e.w.format}
	if e.warm, err = g.Count(ctx, e.opt); err != nil {
		return fmt.Errorf("warm-up count: %w", err)
	}
	if e.w.tight {
		e.opt.MemEdges = max(e.opt.MemEdges, 2*int(e.warm.MaxOutDegree))
	}
	e.copt = pdtl.ClusterOptions{Workers: 1, MemEdges: e.opt.MemEdges, StoreFormat: e.w.format}
	return nil
}

// liveOptions parameterizes a live graph with the workload's pins: the
// compaction build sorts within the same memory budget as the engine.
func (e *env) liveOptions(dir string) pdtl.LiveOptions {
	return pdtl.LiveOptions{Dir: dir, StoreFormat: e.w.format, Workers: workers, MemEdges: e.opt.MemEdges}
}

func (e *env) startService(ctx context.Context) error {
	e.svc = service.New(service.Config{
		RunSlots:     workers,
		Defaults:     e.opt,
		LiveDefaults: e.liveOptions(filepath.Join(e.dir, "snapshots")),
	})
	if err := os.MkdirAll(filepath.Join(e.dir, "snapshots"), 0o755); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = &http.Server{Handler: e.svc}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	body, err := json.Marshal(map[string]any{"name": liveName, "base": e.liveBase, "live": true})
	if err != nil {
		return err
	}
	if _, err := e.call(ctx, http.MethodPost, "/v1/graphs", body, nil); err != nil {
		return fmt.Errorf("register live graph: %w", err)
	}
	return nil
}

// call makes one request and decodes a JSON reply into out. Any reply other
// than 2xx is an error carrying the status code.
func (e *env) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// close stops everything setup started and waits for it to end.
func (e *env) close() {
	if e.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(sctx)
		_ = e.svc.Shutdown(sctx)
		cancel()
		<-e.served
		e.client.CloseIdleConnections()
	}
	if e.pool != nil {
		_ = e.pool.Close()
	}
	if e.g != nil {
		_ = e.g.Close()
	}
}
