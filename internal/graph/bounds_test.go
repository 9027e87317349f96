package graph

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// boundsStore writes a random oriented-shaped graph (sorted lists, some
// vertices empty) in both formats and opens both stores.
func boundsStore(t *testing.T) (*CSR, []*Disk) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	const n = 400
	degrees := make([]uint32, n)
	var adj []Vertex
	for u := 0; u < n; u++ {
		if u%7 == 3 {
			continue // every seventh vertex keeps an empty list
		}
		seen := map[Vertex]bool{}
		for k := rng.Intn(20); k > 0; k-- {
			seen[Vertex(rng.Intn(n))] = true
		}
		list := make([]Vertex, 0, len(seen))
		for v := range seen {
			list = append(list, v)
		}
		sortVertices(list)
		degrees[u] = uint32(len(list))
		adj = append(adj, list...)
	}
	g, err := FromSortedAdjacency(degrees, adj, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var disks []*Disk
	for _, format := range []Format{FormatPlain, FormatCompressed} {
		base := filepath.Join(dir, string(format))
		if err := WriteCSRFormat(base, "bounds", g, format); err != nil {
			t.Fatal(err)
		}
		d, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		disks = append(disks, d)
	}
	return g, disks
}

// TestBoundsIndex checks the index against the lists themselves in both
// formats, the empty interval of zero-degree vertices, and that concurrent
// first callers share one build.
func TestBoundsIndex(t *testing.T) {
	g, disks := boundsStore(t)
	for _, d := range disks {
		var wg sync.WaitGroup
		got := make([]*BoundsIndex, 4)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				b, err := d.BoundsIndex(context.Background())
				if err != nil {
					t.Error(err)
				}
				got[i] = b
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("%s: concurrent callers got different indexes", d.Format())
			}
		}
		b := got[0]
		for v := 0; v < g.NumVertices(); v++ {
			list := g.Neighbors(Vertex(v))
			wantFirst, wantLast := Vertex(math.MaxUint32), Vertex(0)
			if len(list) > 0 {
				wantFirst, wantLast = list[0], list[len(list)-1]
			}
			if b.First[v] != wantFirst || b.Last[v] != wantLast {
				t.Fatalf("%s: vertex %d bounds [%d,%d], want [%d,%d]", d.Format(), v, b.First[v], b.Last[v], wantFirst, wantLast)
			}
		}
	}
}

// TestBoundsIndexDamagedStore: a store damaged after Open must fail the
// index build with an error, and the failure must not be cached — a second
// call fails again, and once the file is repaired the next call builds.
func TestBoundsIndexDamagedStore(t *testing.T) {
	_, disks := boundsStore(t)
	for _, d := range disks {
		path := AdjPath(d.Base)
		if d.Format() == FormatCompressed {
			path = CAdjPath(d.Base)
		}
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damages := map[string][]byte{"truncated": orig[:len(orig)/2]}
		if d.Format() == FormatCompressed {
			// 0xFF is neither segment kind, and as varint bytes it
			// overflows: whatever list the run lands in fails to decode.
			corrupt := append([]byte(nil), orig...)
			for i := len(corrupt) / 2; i < len(corrupt)/2+32; i++ {
				corrupt[i] = 0xFF
			}
			damages["corrupt"] = corrupt
		}
		for name, blob := range damages {
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := d.BoundsIndex(context.Background()); err == nil {
					t.Fatalf("%s/%s: build %d over the damaged store succeeded", d.Format(), name, i+1)
				}
			}
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.BoundsIndex(context.Background()); err != nil {
			t.Fatalf("%s: build after repair: %v", d.Format(), err)
		}
	}
}

// TestBoundsIndexCancelled: a cancelled build returns the context's error
// and is not cached.
func TestBoundsIndexCancelled(t *testing.T) {
	_, disks := boundsStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range disks {
		if _, err := d.BoundsIndex(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled build = %v, want context.Canceled", d.Format(), err)
		}
		if _, err := d.BoundsIndex(context.Background()); err != nil {
			t.Fatalf("%s: build after a cancelled one: %v", d.Format(), err)
		}
	}
}

// FuzzListBounds holds ListBounds to its contract on arbitrary bytes: it
// never panics, and it either errors — exactly when a full decode does — or
// returns the first and last value of the full decode (the empty interval
// for an empty list).
func FuzzListBounds(f *testing.F) {
	var enc ListEncoder
	for _, list := range testLists() {
		f.Add(enc.Append(nil, list), uint16(len(list)))
	}
	f.Add([]byte{0xFF, 0x00, 0x80}, uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{7}, uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, degree uint16) {
		cl := CompressedList{Degree: int(degree), Data: raw}
		first, last, err := ListBounds(cl, make([]Vertex, 0, SegmentEntries))
		decoded, derr := cl.Decode(nil)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ListBounds error %v, full decode error %v", err, derr)
		}
		if err != nil {
			return
		}
		if len(decoded) == 0 {
			if first <= last {
				t.Fatalf("empty list bounds [%d,%d], want the empty interval", first, last)
			}
			return
		}
		if first != decoded[0] || last != decoded[len(decoded)-1] {
			t.Fatalf("bounds [%d,%d], full decode spans [%d,%d]", first, last, decoded[0], decoded[len(decoded)-1])
		}
	})
}
