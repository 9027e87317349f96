package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"pdtl/internal/ioacct"
)

// EntrySize is the on-disk size in bytes of one adjacency or degree entry.
const EntrySize = 4

// Meta describes an on-disk graph. It is stored as JSON in <base>.meta so
// tools and humans can inspect datasets without decoding the binary files.
type Meta struct {
	// Name is a human-readable dataset label (e.g. "twitter-sim").
	Name string `json:"name"`
	// NumVertices is |V|.
	NumVertices int64 `json:"num_vertices"`
	// NumEdges is the undirected edge count m.
	NumEdges uint64 `json:"num_edges"`
	// AdjEntries is the entry count of the .adj file: 2m for undirected
	// graphs, m for oriented ones.
	AdjEntries uint64 `json:"adj_entries"`
	// Oriented reports whether the store holds an orientation G* rather
	// than the bidirectional G.
	Oriented bool `json:"oriented"`
	// MaxDegree is the maximum degree of G (before orientation).
	MaxDegree uint32 `json:"max_degree"`
	// MaxOutDegree is d*max, the maximum out-degree after orientation; it
	// bounds MGT's nm/nmp scratch arrays. Zero for unoriented stores.
	MaxOutDegree uint32 `json:"max_out_degree,omitempty"`
	// Format is the adjacency encoding: empty or "plain" for the uint32
	// .adj layout, "compressed" for the delta-varint/bitmap segment layout
	// in .cadj/.cidx (see compressed.go). Open auto-detects from this
	// field.
	Format Format `json:"format,omitempty"`
}

// Paths for the three files of the store.
func metaPath(base string) string { return base + ".meta" }

// DegPath returns the path of the degree file for the store rooted at base.
func DegPath(base string) string { return base + ".deg" }

// AdjPath returns the path of the adjacency file for the store rooted at
// base.
func AdjPath(base string) string { return base + ".adj" }

// StoreFiles lists the files of a store rooted at base in the given
// format, the metadata file last: a store whose metadata exists is
// complete, so a store renamed into place file by file goes in this order.
func StoreFiles(base string, format Format) []string {
	files := []string{DegPath(base)}
	if format == FormatCompressed {
		files = append(files, CAdjPath(base), CIdxPath(base))
	} else {
		files = append(files, AdjPath(base))
	}
	return append(files, MetaPath(base))
}

// MetaPath returns the path of the metadata file for the store rooted at
// base.
func MetaPath(base string) string { return metaPath(base) }

// WriteCSR writes g to the three files rooted at base, with name recorded in
// the metadata.
func WriteCSR(base, name string, g *CSR) error {
	n := g.NumVertices()
	meta := Meta{
		Name:        name,
		NumVertices: int64(n),
		NumEdges:    g.NumEdges(),
		AdjEntries:  g.AdjEntries(),
		Oriented:    g.Oriented,
		MaxDegree:   g.MaxDegree(),
	}
	if g.Oriented {
		meta.MaxOutDegree = g.MaxDegree()
	}
	if err := WriteMeta(base, meta); err != nil {
		return err
	}
	if err := writeUint32File(DegPath(base), func(emit func(uint32)) {
		for v := 0; v < n; v++ {
			emit(uint32(g.Offsets[v+1] - g.Offsets[v]))
		}
	}); err != nil {
		return err
	}
	return writeUint32File(AdjPath(base), func(emit func(uint32)) {
		for _, w := range g.Adj {
			emit(w)
		}
	})
}

// WriteMeta writes only the metadata file.
func WriteMeta(base string, meta Meta) error {
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("graph: marshal meta: %w", err)
	}
	return os.WriteFile(metaPath(base), append(blob, '\n'), 0o644)
}

// ReadMeta reads the metadata file of the store rooted at base.
func ReadMeta(base string) (Meta, error) {
	blob, err := os.ReadFile(metaPath(base))
	if err != nil {
		return Meta{}, fmt.Errorf("graph: read meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return Meta{}, fmt.Errorf("graph: parse meta %s: %w", metaPath(base), err)
	}
	return meta, nil
}

func writeUint32File(path string, fill func(emit func(uint32))) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var scratch [EntrySize]byte
	var werr error
	fill(func(x uint32) {
		if werr != nil {
			return
		}
		binary.LittleEndian.PutUint32(scratch[:], x)
		_, werr = bw.Write(scratch[:])
	})
	if werr != nil {
		f.Close()
		return werr
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Disk is an opened on-disk graph: its metadata, its degree array (which the
// paper assumes fits in memory for orientation and which every MGT runner
// needs for walking the adjacency file), and the derived per-vertex offsets
// into the adjacency file.
type Disk struct {
	Meta Meta
	Base string
	// Degrees[v] is the (out-)degree of v.
	Degrees []uint32
	// Offsets[v] is the entry index of v's list in the .adj file;
	// Offsets[NumVertices] == AdjEntries.
	Offsets []uint64
	// ByteOffs[v] is the byte offset of v's encoding in the .cadj data
	// area, with ByteOffs[NumVertices] the data area's size; nil for plain
	// stores.
	ByteOffs []uint64

	// bounds caches the per-vertex bounds index of windowed scan passes,
	// built on first use (see BoundsIndex); boundsMu serializes the build.
	boundsMu sync.Mutex
	bounds   atomic.Pointer[BoundsIndex]
}

// Format reports the store's adjacency encoding (empty metadata means
// plain).
func (d *Disk) Format() Format {
	if d.Meta.Format == FormatCompressed {
		return FormatCompressed
	}
	return FormatPlain
}

// Open loads the metadata and degree file of the store rooted at base.
// The adjacency file is opened on demand by the scanners.
func Open(base string) (*Disk, error) {
	meta, err := ReadMeta(base)
	if err != nil {
		return nil, err
	}
	degrees, err := readUint32File(DegPath(base), int(meta.NumVertices))
	if err != nil {
		return nil, err
	}
	n := len(degrees)
	offsets := make([]uint64, n+1)
	var run uint64
	for v, d := range degrees {
		offsets[v] = run
		run += uint64(d)
	}
	offsets[n] = run
	if run != meta.AdjEntries {
		return nil, fmt.Errorf("graph: %s: degree sum %d != meta adj_entries %d", base, run, meta.AdjEntries)
	}
	d := &Disk{Meta: meta, Base: base, Degrees: degrees, Offsets: offsets}
	switch meta.Format {
	case "", FormatPlain:
	case FormatCompressed:
		byteOffs, err := readCIdx(base, n)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(CAdjPath(base))
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		var magic [4]byte
		_, err = io.ReadFull(f, magic[:])
		f.Close()
		if err != nil || magic != cadjMagic {
			return nil, fmt.Errorf("graph: %s: bad magic (not a compressed adjacency file)", CAdjPath(base))
		}
		if want := int64(cadjHeaderLen) + int64(byteOffs[n]); fi.Size() != want {
			return nil, fmt.Errorf("graph: %s: compressed adjacency file is %d bytes, index says %d", base, fi.Size(), want)
		}
		d.ByteOffs = byteOffs
	default:
		return nil, fmt.Errorf("graph: %s: unknown store format %q", base, meta.Format)
	}
	return d, nil
}

func readUint32File(path string, count int) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]uint32, count)
	buf := make([]byte, count*EntrySize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("graph: read %s: %w", path, err)
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[i*EntrySize:])
	}
	return out, nil
}

// OpenAdj opens the adjacency file for reading.
func (d *Disk) OpenAdj() (*os.File, error) {
	return os.Open(AdjPath(d.Base))
}

// OpenAdjData opens the adjacency data for sequential reading, positioned
// at the first vertex's data regardless of format: the .adj file, or the
// .cadj file seeked past its magic. The following AdjBytes bytes are the
// whole data area — the unit the shared broadcaster streams.
func (d *Disk) OpenAdjData() (*os.File, error) {
	if d.Format() != FormatCompressed {
		return d.OpenAdj()
	}
	f, err := os.Open(CAdjPath(d.Base))
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(int64(cadjHeaderLen), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// NumVertices reports |V|.
func (d *Disk) NumVertices() int { return len(d.Degrees) }

// AdjBytes reports the physical size of the adjacency data area in bytes:
// AdjEntries·4 for plain stores, the total encoded size for compressed
// ones. It is the per-pass sequential read volume of a scan.
func (d *Disk) AdjBytes() int64 {
	if d.Format() == FormatCompressed {
		return int64(d.ByteOffs[d.NumVertices()])
	}
	return int64(d.Meta.AdjEntries) * EntrySize
}

// VertexAt returns the vertex whose adjacency list contains global entry
// index pos, by binary search over the offsets.
func (d *Disk) VertexAt(pos uint64) Vertex {
	lo, hi := 0, d.NumVertices()
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Offsets[mid+1] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Vertex(lo)
}

// LoadCSR reads the whole graph into memory, decoding compressed stores.
// Intended for small graphs, tests, and the in-memory baselines.
func (d *Disk) LoadCSR() (*CSR, error) {
	if d.Format() == FormatCompressed {
		sc, err := d.NewScanner(nil, 1<<20)
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		adj := make([]Vertex, 0, d.Meta.AdjEntries)
		for {
			_, list, ok := sc.Next()
			if !ok {
				break
			}
			adj = append(adj, list...)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if uint64(len(adj)) != d.Meta.AdjEntries {
			return nil, fmt.Errorf("graph: decoded %d entries, meta says %d", len(adj), d.Meta.AdjEntries)
		}
		return &CSR{Offsets: d.Offsets, Adj: adj, Oriented: d.Meta.Oriented}, nil
	}
	adjFile, err := d.OpenAdj()
	if err != nil {
		return nil, err
	}
	defer adjFile.Close()
	adj := make([]Vertex, d.Meta.AdjEntries)
	buf := bufio.NewReaderSize(adjFile, 1<<20)
	var scratch [EntrySize]byte
	for i := range adj {
		if _, err := io.ReadFull(buf, scratch[:]); err != nil {
			return nil, fmt.Errorf("graph: read adj: %w", err)
		}
		adj[i] = binary.LittleEndian.Uint32(scratch[:])
	}
	return &CSR{Offsets: d.Offsets, Adj: adj, Oriented: d.Meta.Oriented}, nil
}

// SegCursor is the vertex/segment iteration order of a sequential
// adjacency pass: vertices in id order, zero-degree vertices yielding one
// empty segment, and lists longer than the cap split into consecutive
// sorted segments under the same vertex — how the small-degree assumption
// of the paper's Section IV-A is removed (its footnote 1).
//
// Every sequential reader of the adjacency data — Scanner here, and every
// scan source in internal/scan — drives its decoding off this one type, so
// the "bitwise identical segment streams across sources" contract has a
// single implementation.
//
// A cursor may also carry a vertex window (SetWindow): it then passes over
// every vertex whose list cannot reach the window, and a reader that
// consumes a byte stream finds the skipped lists by position — the next
// yielded vertex's Offsets (or ByteOffs) entry lies past its own cursor.
type SegCursor struct {
	disk    *Disk
	maxList int // segment cap; 0 = whole lists
	next    Vertex
	remain  int // entries of the current vertex still unread

	bounds *BoundsIndex // nil = no window
	lo, hi Vertex       // the window, when bounds is set
}

// NewSegCursor returns a cursor over d's vertices starting at start, with
// segments capped at maxList entries (0 = whole lists).
func NewSegCursor(d *Disk, start Vertex, maxList int) SegCursor {
	return SegCursor{disk: d, next: start, maxList: maxList}
}

// SetWindow restricts the cursor to the vertices whose list may have an
// entry in [lo, hi] by b: every other vertex, zero-degree ones included, is
// passed over without a yield. Vertices that are yielded are segmented
// exactly as without a window. A nil b clears the window.
func (c *SegCursor) SetWindow(b *BoundsIndex, lo, hi Vertex) {
	c.bounds, c.lo, c.hi = b, lo, hi
}

// skip returns the first vertex at or after v that the window keeps, or
// NumVertices when none is left.
func (c *SegCursor) skip(v Vertex) Vertex {
	if c.bounds == nil {
		return v
	}
	i, n := int(v), c.disk.NumVertices()
	for i < n && c.bounds.misses(i, c.lo, c.hi) {
		i++
	}
	return Vertex(i)
}

// Step returns the next segment's vertex and entry count; n is 0 for a
// zero-degree vertex, and ok is false at the end of the pass.
func (c *SegCursor) Step() (u Vertex, n int, ok bool) {
	if c.remain > 0 {
		u = c.next - 1
		n = c.remain
	} else {
		c.next = c.skip(c.next)
		if int(c.next) >= c.disk.NumVertices() {
			return 0, 0, false
		}
		u = c.next
		c.next++
		n = int(c.disk.Degrees[u])
		if n == 0 {
			return u, 0, true
		}
	}
	if c.maxList > 0 && n > c.maxList {
		c.remain = n - c.maxList
		n = c.maxList
	} else {
		c.remain = 0
	}
	return u, n, true
}

// Scanner streams the adjacency file list by list, in vertex order, through
// an accounting reader. It is the sequential "read N(u) from disk" primitive
// of Algorithm 2. Segmentation follows SegCursor.
type Scanner struct {
	disk    *Disk
	file    *os.File
	r       *bufio.Reader
	cur     SegCursor
	pos     uint64 // entry index of the stream's read position
	listBuf []Vertex
	byteBuf []byte
	err     error
}

// SetWindow lets the pass leave out every vertex whose list has no entry
// in [lo, hi] by b (see SegCursor.SetWindow); the bytes of a left-out list
// are read past, never decoded. Must be called before the first Next.
func (s *Scanner) SetWindow(b *BoundsIndex, lo, hi Vertex) { s.cur.SetWindow(b, lo, hi) }

// seek advances the stream to entry index off, discarding the lists of
// vertices the window left out. The bytes still pass through the reader,
// so a windowed pass reads exactly the volume of a full one.
func (s *Scanner) seek(off uint64) error {
	if off <= s.pos {
		return nil
	}
	_, err := s.r.Discard(int(off-s.pos) * EntrySize)
	s.pos = off
	return err
}

// SetMaxList caps the slice length Next returns; longer lists are split
// into consecutive segments. Must be called before the first Next.
func (s *Scanner) SetMaxList(maxList int) {
	if maxList > 0 && maxList < len(s.listBuf) {
		s.cur.maxList = maxList
		s.listBuf = s.listBuf[:maxList]
		s.byteBuf = s.byteBuf[:maxList*EntrySize]
	}
}

// NewScanner opens an adjacency scan charged to counter c (which may be
// shared with other files of the same worker). bufSize is the read buffer in
// bytes; non-positive selects 1 MiB. The concrete scanner matches the store
// format; both yield the identical per-vertex segment stream.
func (d *Disk) NewScanner(c *ioacct.Counter, bufSize int) (SeqScanner, error) {
	return d.NewScannerAt(0, c, bufSize)
}

// NewScannerAt opens an adjacency scan positioned at the start of vertex
// start's list; Next will yield vertices start, start+1, ... in order.
func (d *Disk) NewScannerAt(start Vertex, c *ioacct.Counter, bufSize int) (SeqScanner, error) {
	if int(start) > d.NumVertices() {
		return nil, fmt.Errorf("graph: scanner start vertex %d out of range", start)
	}
	if bufSize <= 0 {
		bufSize = 1 << 20
	}
	if d.Format() == FormatCompressed {
		f, err := os.Open(CAdjPath(d.Base))
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(int64(cadjHeaderLen)+int64(d.ByteOffs[start]), io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		var r io.Reader = f
		if c != nil {
			r = ioacct.NewReader(f, c)
		}
		br := bufio.NewReaderSize(r, bufSize)
		fill := func(p []byte) error {
			_, err := io.ReadFull(br, p)
			return err
		}
		skip := func(n int) error {
			_, err := br.Discard(n)
			return err
		}
		return newCompressedSeqScan(d, start, fill, skip, nil, f.Close), nil
	}
	f, err := d.OpenAdj()
	if err != nil {
		return nil, err
	}
	if start > 0 {
		if _, err := f.Seek(int64(d.Offsets[start])*EntrySize, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	var r io.Reader = f
	if c != nil {
		r = ioacct.NewReader(f, c)
	}
	return &Scanner{
		disk:    d,
		file:    f,
		r:       bufio.NewReaderSize(r, bufSize),
		cur:     NewSegCursor(d, start, 0),
		pos:     d.Offsets[start],
		listBuf: make([]Vertex, int(maxU32(d.Degrees))),
		byteBuf: make([]byte, int(maxU32(d.Degrees))*EntrySize),
	}, nil
}

func maxU32(xs []uint32) uint32 {
	var m uint32
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Next returns the next vertex and its neighbor list (or list segment in
// segmented mode — the same vertex may be yielded several times, with
// consecutive sorted segments). The returned slice is reused by subsequent
// calls. ok is false when the scan is complete or an error occurred; check
// Err afterwards.
func (s *Scanner) Next() (u Vertex, list []Vertex, ok bool) {
	if s.err != nil {
		return 0, nil, false
	}
	u, d, ok := s.cur.Step()
	if !ok {
		if err := s.seek(s.disk.Meta.AdjEntries); err != nil {
			s.err = fmt.Errorf("graph: scan past the last list: %w", err)
		}
		return 0, nil, false
	}
	if err := s.seek(s.disk.Offsets[u]); err != nil {
		s.err = fmt.Errorf("graph: scan vertex %d: %w", u, err)
		return 0, nil, false
	}
	if d == 0 {
		return u, s.listBuf[:0], true
	}
	raw := s.byteBuf[:d*EntrySize]
	if _, err := io.ReadFull(s.r, raw); err != nil {
		s.err = fmt.Errorf("graph: scan vertex %d: %w", u, err)
		return 0, nil, false
	}
	s.pos += uint64(d)
	list = s.listBuf[:d]
	for i := 0; i < d; i++ {
		list[i] = binary.LittleEndian.Uint32(raw[i*EntrySize:])
	}
	return u, list, true
}

// Err reports the first error encountered by Next.
func (s *Scanner) Err() error { return s.err }

// Close releases the underlying file.
func (s *Scanner) Close() error { return s.file.Close() }
