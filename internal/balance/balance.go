// Package balance implements PDTL's edge-range assignment (Section IV-B).
//
// Every one of the N·P processors receives a contiguous range of the
// oriented adjacency file — its pivot-edge responsibility. The naive
// assignment gives each processor the same number of edges. The paper's
// load-balancing step instead weighs vertex v by its post-orientation
// in-degree d_G(v) − d_G*(v): that is how many cone vertices u will have v
// in N+(u), i.e. how many sorted-array intersections will use Ev as their
// in-memory operand, so equalizing the in-degree mass equalizes the
// expected intersection work (Figure 9 measures up to 3× improvement).
package balance

import (
	"fmt"
	"time"

	"pdtl/internal/graph"
)

// Strategy selects how edge ranges are assigned to processors.
type Strategy int

const (
	// Naive splits the adjacency file into equal edge counts ("w/o LB" in
	// Figure 9 and Table X).
	Naive Strategy = iota
	// InDegree splits by the paper's in-degree weights ("w/ LB").
	InDegree
	// Cost splits by the expected intersection cost of the paper's
	// two-pointer `merge` kernel — the "different techniques of load
	// balancing" direction of the paper's future work (Section VI).
	// Vertex v's weight is Σ_{u : v ∈ N+(u)} d_G*(u) + indeg(v)·outdeg(v):
	// the merge steps spent walking each cone list plus those walking Ev
	// itself. The extra Σ d_G*(u) term needs one additional scan of the
	// oriented graph (O(scan(|E|)) I/Os, so Theorem IV.3 is unchanged),
	// supplied via SetConeCost. The model is merge's whatever kernel runs:
	// the default `mark` kernel walks N(u) once per cone vertex per pass,
	// not once per v ∈ N+(u), so under it the cone term over-weights
	// vertices reached from long cone lists (DESIGN.md §5).
	Cost
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case InDegree:
		return "indegree"
	case Cost:
		return "cost"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Range is a contiguous range [Lo, Hi) of global edge indices in the
// oriented adjacency file.
type Range struct {
	Lo, Hi uint64
}

// Len is the number of edges in the range.
func (r Range) Len() uint64 { return r.Hi - r.Lo }

// Plan is the result of a split: one range per processor, in order,
// covering [0, AdjEntries) exactly.
type Plan struct {
	Ranges   []Range
	Strategy Strategy
	// Weights is the estimated work per range under the strategy's cost
	// model (diagnostic; used by tests and by Table IV's imbalance
	// analysis).
	Weights []float64
	// Duration is the wall time spent computing the plan (the paper counts
	// load balancing toward calculation time).
	Duration time.Duration
}

// Inputs bundles everything a split may need.
type Inputs struct {
	// Offsets is the oriented store's per-vertex entry offsets (n+1).
	Offsets []uint64
	// OutDeg is d_G*(v) per vertex.
	OutDeg []uint32
	// InDeg is d_G(v) − d_G*(v) per vertex (required by InDegree and
	// Cost).
	InDeg []uint32
	// ConeCost is Σ_{u : v ∈ N+(u)} d_G*(u) per vertex (required by
	// Cost); see ConeCosts.
	ConeCost []uint64
}

// Split assigns the oriented store's edges to k processors. outDeg and
// inDeg are the post-orientation out- and in-degree arrays (from
// orient.Result). k must be ≥ 1. For the Cost strategy use SplitInputs.
func Split(offsets []uint64, outDeg, inDeg []uint32, k int, strategy Strategy) (Plan, error) {
	return SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, k, strategy)
}

// SplitChunks cuts the plan into workers·perWorker weighted chunks for the
// work-stealing scheduler: the same cost model that would assign one range
// per processor instead produces K chunks per processor, each carrying
// ≈ 1/K of a processor's expected work, so a pool drawing chunks
// dynamically self-corrects whatever the model misjudges. perWorker ≤ 0
// degrades to the static split (one chunk per worker).
func SplitChunks(in Inputs, workers, perWorker int, strategy Strategy) (Plan, error) {
	if perWorker < 1 {
		perWorker = 1
	}
	if workers < 1 {
		return Plan{}, fmt.Errorf("balance: need at least one worker, got %d", workers)
	}
	return SplitInputs(in, workers*perWorker, strategy)
}

// SplitInputs is Split with the full input bundle.
func SplitInputs(in Inputs, k int, strategy Strategy) (Plan, error) {
	start := time.Now()
	if k < 1 {
		return Plan{}, fmt.Errorf("balance: need at least one processor, got %d", k)
	}
	if len(in.Offsets) != len(in.OutDeg)+1 {
		return Plan{}, fmt.Errorf("balance: offsets length %d does not match %d vertices", len(in.Offsets), len(in.OutDeg))
	}
	total := in.Offsets[len(in.Offsets)-1]
	var plan Plan
	plan.Strategy = strategy
	weightFn := func(v int) float64 { return edgeWeight(in.OutDeg, in.InDeg, v) }
	switch strategy {
	case Naive:
		plan.Ranges = naiveRanges(total, k)
	case InDegree:
		if len(in.InDeg) != len(in.OutDeg) {
			return Plan{}, fmt.Errorf("balance: in-degree array length %d != %d vertices", len(in.InDeg), len(in.OutDeg))
		}
		plan.Ranges = weightedRanges(in.Offsets, in.OutDeg, weightFn, k)
	case Cost:
		if len(in.InDeg) != len(in.OutDeg) || len(in.ConeCost) != len(in.OutDeg) {
			return Plan{}, fmt.Errorf("balance: Cost strategy needs in-degree and cone-cost arrays for all %d vertices", len(in.OutDeg))
		}
		weightFn = func(v int) float64 { return costWeight(in, v) }
		plan.Ranges = weightedRanges(in.Offsets, in.OutDeg, weightFn, k)
	default:
		return Plan{}, fmt.Errorf("balance: unknown strategy %d", int(strategy))
	}
	plan.Weights = rangeWeights(plan.Ranges, in.Offsets, in.OutDeg, weightFn)
	plan.Duration = time.Since(start)
	return plan, nil
}

// costWeight is the exact-cost model per out-edge of v: scan work, plus
// the in-degree mass (merge steps over Ev), plus the cone-list mass spread
// across v's out-edges (merge steps over each N*(u)).
func costWeight(in Inputs, v int) float64 {
	if in.OutDeg[v] == 0 {
		return 0
	}
	return 1 + float64(in.InDeg[v]) + float64(in.ConeCost[v])/float64(in.OutDeg[v])
}

func naiveRanges(total uint64, k int) []Range {
	ranges := make([]Range, k)
	var lo uint64
	for i := 0; i < k; i++ {
		hi := total * uint64(i+1) / uint64(k)
		ranges[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return ranges
}

// edgeWeight is the cost model per out-edge of vertex v: one unit of scan
// work plus v's in-degree. The in-degree term is the paper's ("the sum of
// these in-degrees are approximately the same among all processors"): every
// cone vertex u with v ∈ N+(u) — there are indeg(v) of them — runs a merge
// that walks v's in-memory out-edges, so each out-edge of v is touched
// ≈ indeg(v) times per window. A nil in-degree array (naive plans evaluated
// for diagnostics) contributes no mass.
func edgeWeight(outDeg, inDeg []uint32, v int) float64 {
	if outDeg[v] == 0 {
		return 0
	}
	if inDeg == nil {
		return 1
	}
	return 1 + float64(inDeg[v])
}

func weightedRanges(offsets []uint64, outDeg []uint32, weightFn func(v int) float64, k int) []Range {
	n := len(outDeg)
	// Cumulative weight at each vertex boundary.
	cum := make([]float64, n+1)
	for v := 0; v < n; v++ {
		w := weightFn(v) * float64(outDeg[v])
		cum[v+1] = cum[v] + w
	}
	total := cum[n]
	ranges := make([]Range, k)
	var lo uint64
	v := 0
	for i := 0; i < k-1; i++ {
		target := total * float64(i+1) / float64(k)
		// Advance to the vertex whose boundary weight crosses the target.
		for v < n && cum[v+1] < target {
			v++
		}
		var hi uint64
		if v >= n {
			hi = offsets[n]
		} else {
			// Interpolate an edge position inside v's out-list.
			perEdge := weightFn(v)
			var within uint64
			if perEdge > 0 {
				within = uint64((target - cum[v]) / perEdge)
			}
			if within > uint64(outDeg[v]) {
				within = uint64(outDeg[v])
			}
			hi = offsets[v] + within
		}
		if hi < lo {
			hi = lo
		}
		ranges[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	ranges[k-1] = Range{Lo: lo, Hi: offsets[n]}
	return ranges
}

// rangeWeights evaluates a cost model over each range (splitting vertex
// lists proportionally at the boundaries).
func rangeWeights(ranges []Range, offsets []uint64, outDeg []uint32, weightFn func(v int) float64) []float64 {
	n := len(outDeg)
	weights := make([]float64, len(ranges))
	v := 0
	for i, r := range ranges {
		if r.Len() == 0 {
			continue
		}
		// Find the vertex containing r.Lo.
		for v < n && offsets[v+1] <= r.Lo {
			v++
		}
		w := 0.0
		pos := r.Lo
		for u := v; u < n && pos < r.Hi; u++ {
			if offsets[u+1] <= pos {
				continue
			}
			end := offsets[u+1]
			if end > r.Hi {
				end = r.Hi
			}
			w += weightFn(u) * float64(end-pos)
			pos = end
		}
		weights[i] = w
	}
	return weights
}

// ConeCosts computes Σ_{u : v ∈ N+(u)} d_G*(u) for every v by one scan of
// the oriented store — the extra input of the Cost strategy. The scan is
// O(scan(|E|)) I/Os, the same order as orientation itself.
func ConeCosts(d *graph.Disk) ([]uint64, error) {
	sc, err := d.NewScanner(nil, 0)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	costs := make([]uint64, d.NumVertices())
	for {
		_, list, ok := sc.Next()
		if !ok {
			break
		}
		deg := uint64(len(list))
		for _, v := range list {
			costs[v] += deg
		}
	}
	return costs, sc.Err()
}

// ConeCostsCSR is ConeCosts for an in-memory oriented graph (tests).
func ConeCostsCSR(o *graph.CSR) []uint64 {
	costs := make([]uint64, o.NumVertices())
	for u := 0; u < o.NumVertices(); u++ {
		list := o.Neighbors(graph.Vertex(u))
		deg := uint64(len(list))
		for _, v := range list {
			costs[v] += deg
		}
	}
	return costs
}

// Imbalance reports max(weights)/mean(weights), the straggler factor of a
// plan (1.0 is perfect). Used by the Figure 9 / Table IV analysis.
func (p Plan) Imbalance() float64 {
	if len(p.Weights) == 0 {
		return 1
	}
	var sum, maxW float64
	for _, w := range p.Weights {
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(len(p.Weights))
	return maxW / mean
}

// Validate checks that the plan covers [0, total) with contiguous,
// non-overlapping, ordered ranges.
func (p Plan) Validate(total uint64) error {
	var expect uint64
	for i, r := range p.Ranges {
		if r.Lo != expect {
			return fmt.Errorf("balance: range %d starts at %d, want %d", i, r.Lo, expect)
		}
		if r.Hi < r.Lo {
			return fmt.Errorf("balance: range %d inverted: %+v", i, r)
		}
		expect = r.Hi
	}
	if expect != total {
		return fmt.Errorf("balance: plan covers %d of %d edges", expect, total)
	}
	return nil
}

// Subdivide splits a plan's k ranges among nodes: node i of n receives
// ranges [i·k/n, (i+1)·k/n). It is how the master groups per-processor
// ranges into per-machine configurations C_{i,j} (Figure 1).
func (p Plan) Subdivide(nodes int) [][]Range {
	k := len(p.Ranges)
	out := make([][]Range, nodes)
	for i := 0; i < nodes; i++ {
		lo := k * i / nodes
		hi := k * (i + 1) / nodes
		out[i] = p.Ranges[lo:hi]
	}
	return out
}

// OffsetsFromDisk is a convenience for callers holding a *graph.Disk.
func OffsetsFromDisk(d *graph.Disk) []uint64 { return d.Offsets }
