package live

import (
	"fmt"
	"sync"

	"pdtl/internal/graph"
	"pdtl/internal/orient"
	"pdtl/internal/vset"
)

// baseSnap is one immutable on-disk snapshot of the graph: the opened
// oriented store plus the in-memory state the live layer derives from it
// once — the pinned oriented adjacency (membership checks and the overlay
// read path), the undirected degrees (the frozen rank that tells the
// overlay which direction a delta edge is stored in), and the
// post-orientation in-degrees (load balancing). A live graph pins ~4 bytes
// per directed edge in RAM on top of the store; that is the price of
// serving merged reads and validating mutations without disk seeks.
type baseSnap struct {
	disk *graph.Disk
	base string // oriented store path
	// csr is the pinned oriented adjacency (csr.Neighbors(u) = N+(u)).
	csr *graph.CSR
	// undirDeg[v] = d_G(v) (out + in of the oriented store) — the degree
	// the orientation ranked vertices by, reconstructed exactly.
	undirDeg []uint32
	// inDeg[v] = d_G(v) − d_G*(v), the load balancer's weight.
	inDeg []uint32
	// gen is the compaction generation (0 = the store OpenLive was given).
	gen uint64
	// owned snapshots (gen ≥ 1) were built by the compactor, which deletes
	// them when they are replaced; the user's original store never is.
	owned bool
	// files are the paths to remove when an owned snapshot retires.
	files []string
}

// newBaseSnap pins the oriented store d into a snapshot.
func newBaseSnap(d *graph.Disk, base string, gen uint64, owned bool, files []string) (*baseSnap, error) {
	if !d.Meta.Oriented {
		return nil, fmt.Errorf("live: store %s is not oriented", base)
	}
	csr, err := d.LoadCSR()
	if err != nil {
		return nil, err
	}
	n := d.NumVertices()
	undirDeg := make([]uint32, n)
	inDeg := make([]uint32, n)
	for v := 0; v < n; v++ {
		undirDeg[v] = d.Degrees[v]
	}
	for _, w := range csr.Adj {
		undirDeg[w]++
		inDeg[w]++
	}
	return &baseSnap{
		disk:     d,
		base:     base,
		csr:      csr,
		undirDeg: undirDeg,
		inDeg:    inDeg,
		gen:      gen,
		owned:    owned,
		files:    files,
	}, nil
}

// rankLess reports u ≺ v under the snapshot's frozen degree order —
// orient.Less over the base undirected degrees, with vertices beyond the
// snapshot (created by delta inserts) ranked as degree 0. The base store
// holds edge (u, v) in u's out-list exactly when rankLess(u, v), so delta
// edges oriented by the same rank merge consistently.
func (b *baseSnap) rankLess(u, v graph.Vertex) bool {
	du, dv := b.degOf(u), b.degOf(v)
	if du != dv {
		return du < dv
	}
	return u < v
}

func (b *baseSnap) degOf(v graph.Vertex) uint32 {
	if int(v) < len(b.undirDeg) {
		return b.undirDeg[v]
	}
	return 0
}

// out returns u's base out-list (nil beyond the snapshot).
func (b *baseSnap) out(u graph.Vertex) []graph.Vertex {
	if int(u) >= b.csr.NumVertices() {
		return nil
	}
	return b.csr.Neighbors(u)
}

// hasEdge reports whether the undirected edge (u, v) is in the snapshot:
// the oriented store holds it under the rank-smaller endpoint.
func (b *baseSnap) hasEdge(u, v graph.Vertex) bool {
	if b.rankLess(v, u) {
		u, v = v, u
	}
	return vset.Contains(b.out(u), v)
}

// view is one immutable published state of the live graph: a base snapshot
// plus up to two delta layers — frozen (being compacted, nil otherwise)
// and active (absorbing mutations). Queries capture a view pointer and
// work off it unlocked; mutations and compaction publish fresh views.
type view struct {
	base   *baseSnap
	frozen *delta // nil unless a compaction is in flight
	active *delta
	// batches is how many mutation batches the graph had applied when the
	// view was published: the mutation generation the view answers for.
	batches uint64

	// merged is the lazily built overlay (synthetic disk + oriented delta
	// lists); built at most once per view, by the first query.
	mergedOnce sync.Once
	mergedView *merged
	mergedErr  error
}

// deltaEdges reports the total delta size (both layers, undirected
// inserts + deletes) — the /metrics gauge and compaction trigger measure.
func (v *view) deltaEdges() int { return v.frozenEdges() + v.active.edges() }

func (v *view) frozenEdges() int {
	if v.frozen == nil {
		return 0
	}
	return v.frozen.edges()
}

// present reports whether the undirected edge (u, v) exists in the view:
// base presence composed through the frozen and active layers.
func (v *view) present(u, w graph.Vertex) bool {
	p := v.base.hasEdge(u, w)
	if v.frozen != nil {
		p = v.frozen.presentAfter(p, u, w)
	}
	return v.active.presentAfter(p, u, w)
}

// merged returns the view's overlay, building it on first use.
func (v *view) merged() (*merged, error) {
	v.mergedOnce.Do(func() {
		v.mergedView, v.mergedErr = buildMerged(v.base, compose(v.frozen, v.active))
	})
	return v.mergedView, v.mergedErr
}

// merged is the overlay the engine runs against: a synthetic in-memory
// graph.Disk describing the merged oriented graph (degrees, offsets,
// meta), plus the per-vertex oriented insert/delete lists the scan source
// applies on top of the pinned base adjacency. Everything here is
// immutable once built.
type merged struct {
	base *baseSnap
	// eff is the composed (frozen ⊕ active) delta the overlay was built
	// from, kept for the compactor's edge streaming.
	eff *delta
	// disk is the synthetic merged store: real Degrees/Offsets/Meta, no
	// files behind it — only the overlay source ever reads through it.
	disk *graph.Disk
	// outIns[u] / outDel[u] are the delta edges oriented u → v by the base
	// rank: sorted, outIns disjoint from base out-lists, outDel a subset
	// of them.
	outIns map[graph.Vertex][]graph.Vertex
	outDel map[graph.Vertex][]graph.Vertex
	// inDeg is the merged post-orientation in-degree array (load
	// balancing).
	inDeg []uint32
	// maxMergedDeg bounds any merged out-list (scratch sizing).
	maxMergedDeg int
}

// buildMerged computes the overlay for base ⊕ eff. Cost: O(n + |delta|)
// plus the prefix sums — linear passes only, done once per published view
// on first query.
func buildMerged(base *baseSnap, eff *delta) (*merged, error) {
	baseN := base.disk.NumVertices()
	n := baseN
	if len(eff.lists) > 0 && int(eff.maxVertex)+1 > n {
		n = int(eff.maxVertex) + 1
	}

	outIns := make(map[graph.Vertex][]graph.Vertex, len(eff.lists))
	outDel := make(map[graph.Vertex][]graph.Vertex, len(eff.lists))
	for u, l := range eff.lists {
		var ins, del []graph.Vertex
		for _, v := range l.ins {
			if base.rankLess(u, v) {
				ins = append(ins, v)
			}
		}
		for _, v := range l.del {
			if base.rankLess(u, v) {
				del = append(del, v)
			}
		}
		if len(ins) > 0 {
			outIns[u] = ins
		}
		if len(del) > 0 {
			outDel[u] = del
		}
	}

	degrees := make([]uint32, n)
	inDeg := make([]uint32, n)
	copy(inDeg, base.inDeg)
	var adjEntries uint64
	var maxOut uint32
	maxMerged := 0
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		u := graph.Vertex(v)
		d := 0
		if v < baseN {
			d = int(base.disk.Degrees[v])
		}
		d += len(outIns[u]) - len(outDel[u])
		if d < 0 {
			return nil, fmt.Errorf("live: vertex %d merged out-degree %d < 0 (delta invariant broken)", v, d)
		}
		degrees[v] = uint32(d)
		offsets[v] = adjEntries
		adjEntries += uint64(d)
		if uint32(d) > maxOut {
			maxOut = uint32(d)
		}
		if d > maxMerged {
			maxMerged = d
		}
		for _, w := range outIns[u] {
			inDeg[w]++
		}
		for _, w := range outDel[u] {
			if inDeg[w] == 0 {
				return nil, fmt.Errorf("live: vertex %d merged in-degree < 0 (delta invariant broken)", w)
			}
			inDeg[w]--
		}
	}
	offsets[n] = adjEntries

	numEdges := base.disk.Meta.NumEdges + uint64(eff.insEdges) - uint64(eff.delEdges)
	disk := &graph.Disk{
		Meta: graph.Meta{
			Name:         base.disk.Meta.Name + "+delta",
			NumVertices:  int64(n),
			NumEdges:     numEdges,
			AdjEntries:   adjEntries,
			Oriented:     true,
			MaxDegree:    base.disk.Meta.MaxDegree,
			MaxOutDegree: maxOut,
			Format:       graph.FormatPlain,
		},
		Base:    base.base + "+delta",
		Degrees: degrees,
		Offsets: offsets,
	}
	return &merged{
		base:         base,
		eff:          eff,
		disk:         disk,
		outIns:       outIns,
		outDel:       outDel,
		inDeg:        inDeg,
		maxMergedDeg: maxMerged,
	}, nil
}

// outList appends vertex u's merged out-list (base ∪ ins \ del, sorted) to
// dst and returns it.
func (m *merged) outList(dst []graph.Vertex, u graph.Vertex) []graph.Vertex {
	return vset.Merge(dst, m.base.out(u), m.outIns[u], m.outDel[u])
}

// numVertices of the merged graph.
func (m *merged) numVertices() int { return m.disk.NumVertices() }

// rank order sanity: orient.Less over the original degrees must match the
// snapshot reconstruction — referenced here so the dependency is explicit.
var _ = orient.Less
