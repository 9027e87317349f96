package graph

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// BoundsIndex holds the first and last out-neighbour of every vertex of a
// store — 8 bytes per vertex, beside Offsets and Degrees. It is what a
// windowed scan pass filters on: a list whose [First, Last] interval misses
// the pass's vertex window [lo, hi] cannot contribute an intersection, so
// the pass advances past its bytes without copying or decoding them (see
// SegCursor.SetWindow). A zero-degree vertex holds the empty interval
// (First = MaxUint32, Last = 0), which every window short of the whole
// vertex range misses.
type BoundsIndex struct {
	First, Last []Vertex
}

// misses reports whether v's list has no entry in [lo, hi] by its bounds.
func (b *BoundsIndex) misses(v int, lo, hi Vertex) bool {
	return b.Last[v] < lo || b.First[v] > hi
}

// boundsBlock is the read size of the index build, in data-area bytes; the
// build checks its context once per block.
const boundsBlock = 256 << 10

// BoundsIndex returns the store's per-vertex bounds index, building it on
// first use by one sequential read of the adjacency data and caching it for
// the Disk's lifetime. Concurrent callers share a single build. ctx is
// checked between blocks of the read; a failed or cancelled build is not
// cached, so the next call reads the store again — and a damaged store
// fails again. A compressed store's lists are decoded in full during the
// build (ListBounds), so a corrupt list fails here even when no later pass
// ever decodes it.
//
// The read is not charged to any I/O counter: like the degree file and the
// .cidx index that Open reads, the index is per-store metadata, read at
// most once per Disk, and the run counters keep meaning "bytes the
// algorithm's passes and window loads moved".
func (d *Disk) BoundsIndex(ctx context.Context) (*BoundsIndex, error) {
	if b := d.bounds.Load(); b != nil {
		return b, nil
	}
	d.boundsMu.Lock()
	defer d.boundsMu.Unlock()
	if b := d.bounds.Load(); b != nil {
		return b, nil
	}
	b, err := d.buildBounds(ctx)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: bounds index: %w", d.Base, err)
	}
	d.bounds.Store(b)
	return b, nil
}

// buildBounds reads the data area once, in vertex order, and records every
// list's first and last entry.
func (d *Disk) buildBounds(ctx context.Context) (*BoundsIndex, error) {
	n := d.NumVertices()
	b := &BoundsIndex{First: make([]Vertex, n), Last: make([]Vertex, n)}
	for v := range b.First {
		b.First[v] = math.MaxUint32
	}
	f, err := d.OpenAdjData()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if d.Format() == FormatCompressed {
		err = d.compressedBounds(ctx, f, b)
	} else {
		err = d.plainBounds(ctx, f, b)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// plainBounds reads the .adj data in whole blocks and picks each list's
// first and last entry out of the block that holds it.
func (d *Disk) plainBounds(ctx context.Context, r io.Reader, b *BoundsIndex) error {
	n := d.NumVertices()
	total := d.Meta.AdjEntries
	buf := make([]byte, boundsBlock)
	entry := func(e, e0 uint64) Vertex {
		return binary.LittleEndian.Uint32(buf[(e-e0)*EntrySize:])
	}
	vf, vl := 0, 0 // next vertex whose first / last entry is still unread
	for e0 := uint64(0); e0 < total; {
		if err := ctx.Err(); err != nil {
			return err
		}
		e1 := min(e0+boundsBlock/EntrySize, total)
		if _, err := io.ReadFull(r, buf[:(e1-e0)*EntrySize]); err != nil {
			return fmt.Errorf("entries [%d,%d): %w", e0, e1, err)
		}
		for ; vf < n && d.Offsets[vf] < e1; vf++ {
			if d.Degrees[vf] > 0 {
				b.First[vf] = entry(d.Offsets[vf], e0)
			}
		}
		for ; vl < n && d.Offsets[vl+1] <= e1; vl++ {
			if d.Degrees[vl] > 0 {
				b.Last[vl] = entry(d.Offsets[vl+1]-1, e0)
			}
		}
		e0 = e1
	}
	return nil
}

// compressedBounds reads the .cadj data area list by list and takes each
// list's bounds from a full, validating decode (ListBounds).
func (d *Disk) compressedBounds(ctx context.Context, r io.Reader, b *BoundsIndex) error {
	br := bufio.NewReaderSize(r, boundsBlock)
	raw := make([]byte, d.maxEncodedList())
	scratch := make([]Vertex, 0, SegmentEntries)
	var nextCheck uint64
	for v := range b.First {
		lo, hi := d.ByteOffs[v], d.ByteOffs[v+1]
		if lo >= nextCheck {
			if err := ctx.Err(); err != nil {
				return err
			}
			nextCheck = lo + boundsBlock
		}
		deg := int(d.Degrees[v])
		if deg == 0 && hi > lo {
			return fmt.Errorf("vertex %d has degree 0 but a %d-byte encoding", v, hi-lo)
		}
		list := raw[:hi-lo]
		if _, err := io.ReadFull(br, list); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
		var err error
		if b.First[v], b.Last[v], err = ListBounds(CompressedList{Degree: deg, Data: list}, scratch); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
	}
	return nil
}

// ListBounds returns cl's first and last entry, validating the whole
// encoding on the way: every segment is decoded (DecodeSegmentFast into
// scratch, capacity ≥ SegmentEntries), so ListBounds errors exactly when
// cl.Decode does. An empty list returns the empty interval
// (MaxUint32, 0).
func ListBounds(cl CompressedList, scratch []Vertex) (first, last Vertex, err error) {
	first, last = math.MaxUint32, 0
	it := cl.Segments()
	for k := 0; ; k++ {
		seg, ok := it.Next()
		if !ok {
			if err := it.Err(); err != nil {
				return 0, 0, err
			}
			return first, last, nil
		}
		if _, _, err := DecodeSegmentFast(seg, scratch[:0]); err != nil {
			return 0, 0, err
		}
		if k == 0 {
			first = seg.First
		}
		last = seg.Last
	}
}
