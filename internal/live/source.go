package live

import (
	"fmt"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/scan"
)

// overlaySource is the scan.Source the engine runs against when querying a
// live graph: it serves the merged oriented adjacency (pinned base CSR ∪
// delta inserts \ delta deletes) entirely from memory. It satisfies the
// same contract as the disk sources — a full pass yields every vertex in
// order with its list split into maxList segments, and ReadEntries serves
// any entry range of the merged layout — so the mgt runners, window loads,
// and large-vertex re-reads work over a live view unchanged. No I/O is
// performed or charged: the overlay's Kind is SourceMem and its counters
// stay zero, matching the semantics of a fully resident store.
type overlaySource struct {
	m  *merged
	io *ioacct.Counter
}

// newOverlaySource wraps a built merged view. The returned source matches
// the core.Options.NewSource signature through liveGraph's closure.
func newOverlaySource(m *merged, cfg scan.Config) *overlaySource {
	c := cfg.Counter
	if c == nil {
		c = ioacct.NewCounter(0)
	}
	return &overlaySource{m: m, io: c}
}

func (s *overlaySource) Handle(c *ioacct.Counter) (scan.Handle, error) {
	return &overlayHandle{m: s.m}, nil
}

func (s *overlaySource) IO() ioacct.Stats      { return s.io.Snapshot() }
func (s *overlaySource) Kind() scan.SourceKind { return scan.SourceMem }
func (s *overlaySource) Close() error          { return nil }

// overlayHandle is one runner's accessor. The scratch buffer holds one
// merged out-list at a time; it is sized to the largest merged degree so a
// pass never reallocates.
type overlayHandle struct {
	m       *merged
	scratch []graph.Vertex
}

func (h *overlayHandle) Scan(maxList int) (scan.Scan, error) {
	// The pass gets a private list buffer: the engine may interleave
	// window loads (ReadEntries) with an in-flight scan on the same
	// handle, and those must not clobber the segment the scan is
	// mid-way through yielding.
	return &overlayScan{
		m:       h.m,
		maxList: maxList,
		scratch: make([]graph.Vertex, 0, h.m.maxMergedDeg),
	}, nil
}

// ScanWindow ignores the window, as the scan.Handle contract allows: the
// merged lists can differ from the base store's, so the base store's bounds
// index does not describe them. The pass is the full Scan.
func (h *overlayHandle) ScanWindow(maxList int, _, _ graph.Vertex) (scan.Scan, error) {
	return h.Scan(maxList)
}

// ReadEntries serves the random-access path: entry positions index the
// synthetic merged layout (m.disk.Offsets), and each touched vertex's
// merged list is materialized and the requested range copied out. Window
// loads read long runs of consecutive vertices, so the per-vertex merge is
// amortized exactly like a sequential scan.
func (h *overlayHandle) ReadEntries(dst []graph.Vertex, pos uint64) error {
	m := h.m
	end := pos + uint64(len(dst))
	if end > m.disk.Meta.AdjEntries {
		return fmt.Errorf("live: ReadEntries [%d,%d) beyond adjacency end %d", pos, end, m.disk.Meta.AdjEntries)
	}
	if len(dst) == 0 {
		return nil
	}
	u := m.disk.VertexAt(pos)
	filled := 0
	for filled < len(dst) {
		list := h.list(u)
		// Clip the vertex's list to the requested range.
		start := uint64(0)
		if off := m.disk.Offsets[u]; pos+uint64(filled) > off {
			start = pos + uint64(filled) - off
		}
		n := copy(dst[filled:], list[start:])
		filled += n
		u++
	}
	return nil
}

func (h *overlayHandle) Close() error { return nil }

// list materializes u's merged out-list into the handle scratch.
func (h *overlayHandle) list(u graph.Vertex) []graph.Vertex {
	if cap(h.scratch) < h.m.maxMergedDeg {
		h.scratch = make([]graph.Vertex, 0, h.m.maxMergedDeg)
	}
	h.scratch = h.m.outList(h.scratch[:0], u)
	return h.scratch
}

// overlayScan is one sequential pass: vertices in order, each merged list
// split into segments of at most maxList entries (maxList <= 0 yields whole
// lists), zero-degree vertices yielding one empty segment — the same
// segmentation contract as graph.SeqScanner.
type overlayScan struct {
	m       *merged
	maxList int
	u       graph.Vertex
	scratch []graph.Vertex
	// off is the next segment start within the current vertex's list;
	// pending marks that the list still has segments to yield.
	off     int
	pending bool
	closed  bool
}

func (s *overlayScan) Next() (graph.Vertex, []graph.Vertex, bool) {
	if s.closed {
		return 0, nil, false
	}
	for {
		if s.pending {
			u := s.u - 1 // the list belongs to the vertex we advanced past
			seg := s.scratch[s.off:]
			if s.maxList > 0 && len(seg) > s.maxList {
				seg = seg[:s.maxList]
			}
			s.off += len(seg)
			if s.off >= len(s.scratch) {
				s.pending = false
			}
			return u, seg, true
		}
		if int(s.u) >= s.m.numVertices() {
			return 0, nil, false
		}
		u := s.u
		s.u++
		s.scratch = s.m.outList(s.scratch[:0], u)
		list := s.scratch
		if len(list) == 0 || s.maxList <= 0 || len(list) <= s.maxList {
			return u, list, true
		}
		s.off = 0
		s.pending = true
	}
}

func (s *overlayScan) Err() error   { return nil }
func (s *overlayScan) Close() error { s.closed = true; return nil }
