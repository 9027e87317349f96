package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// Dataset is one entry of the Table I stand-in registry.
type Dataset struct {
	// Key is the dataset id used by experiments ("twitter-sim").
	Key string
	// Paper is the Table I dataset this stands in for.
	Paper string
	// Build generates the graph deterministically.
	Build func() (*graph.CSR, error)
}

// Datasets is the registry, in Table I order. Scales are chosen so the full
// experiment suite runs in minutes on a laptop while preserving each
// dataset's structural signature (skew ordering, density, hub sizes) — see
// DESIGN.md §3.
var Datasets = []Dataset{
	{
		Key: "lj-sim", Paper: "soc-LiveJournal1",
		Build: func() (*graph.CSR, error) {
			return gen.Community(1<<14, (1<<14)*9,
				gen.CommunityParams{Communities: 64, IntraProb: 0.55, Exponent: 2.6}, 101)
		},
	},
	{
		Key: "orkut-sim", Paper: "com-Orkut",
		Build: func() (*graph.CSR, error) {
			return gen.Community(1<<13, (1<<13)*38,
				gen.CommunityParams{Communities: 48, IntraProb: 0.5, Exponent: 2.5}, 102)
		},
	},
	{
		Key: "twitter-sim", Paper: "Twitter",
		Build: func() (*graph.CSR, error) {
			return gen.PowerLaw(1<<15, (1<<15)*29, 1.9, 103)
		},
	},
	{
		Key: "yahoo-sim", Paper: "Yahoo",
		Build: func() (*graph.CSR, error) {
			return gen.Web(1<<17, gen.DefaultWeb, 104)
		},
	},
	{
		Key: "rmat14", Paper: "RMAT-26",
		Build: func() (*graph.CSR, error) { return gen.RMAT(14, 16, 105) },
	},
	{
		Key: "rmat15", Paper: "RMAT-27",
		Build: func() (*graph.CSR, error) { return gen.RMAT(15, 16, 106) },
	},
	{
		Key: "rmat16", Paper: "RMAT-28",
		Build: func() (*graph.CSR, error) { return gen.RMAT(16, 16, 107) },
	},
	{
		Key: "rmat17", Paper: "RMAT-29",
		Build: func() (*graph.CSR, error) { return gen.RMAT(17, 16, 108) },
	},
	{
		// tiny is not a Table I stand-in: it is the seconds-scale smoke
		// dataset CI runs `pdtl-bench -json` against to keep the JSON
		// schema honest. Skewed on purpose so the worker-imbalance field
		// is non-trivial.
		Key: "tiny", Paper: "(smoke)",
		Build: func() (*graph.CSR, error) { return gen.PowerLaw(1<<10, (1<<10)*8, 2.0, 109) },
	},
}

// dataset looks a registry entry up by key.
func dataset(key string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Key == key {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("harness: unknown dataset %q", key)
}

// Harness owns the dataset/orientation cache for one process (or a
// persistent cache directory when given one).
type Harness struct {
	cacheDir string

	// Scan, Kernel, Sched, and Chunks, when set, override the execution
	// layer for every experiment run through the harness (CalcLocal and
	// RunCluster) — the pdtl-bench -scan/-kernel/-sched/-chunks flags land
	// here, so any table or figure can be regenerated under a different
	// scan source, intersection kernel, or chunk scheduler. Zero values
	// keep the engine defaults.
	Scan   scan.SourceKind
	Kernel scan.KernelKind
	Sched  sched.Mode
	Chunks int
	// StoreFormat selects the oriented-store encoding every experiment
	// runs against (the pdtl-bench -store flag); empty means
	// graph.FormatPlain. The orientation cache is keyed by format, so one
	// harness can compare both encodings of the same dataset.
	StoreFormat graph.Format
	// Ctx, when set, bounds every run the harness performs: cancelling it
	// aborts the in-flight experiment (pdtl-bench wires SIGINT/SIGTERM
	// here) and stops between experiments. Nil means context.Background().
	Ctx context.Context

	mu       sync.Mutex
	stores   map[string]string
	oriented map[string]orientEntry
}

type orientEntry struct {
	base string
	res  *orient.Result
}

// New creates a harness. cacheDir == "" creates a fresh temporary cache
// (generated datasets are rebuilt per process); a persistent directory
// reuses stores across runs.
func New(cacheDir string) (*Harness, error) {
	if cacheDir == "" {
		dir, err := os.MkdirTemp("", "pdtl-harness-")
		if err != nil {
			return nil, err
		}
		cacheDir = dir
	} else if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	return &Harness{
		cacheDir: cacheDir,
		stores:   make(map[string]string),
		oriented: make(map[string]orientEntry),
	}, nil
}

// CacheDir reports the harness's cache directory.
func (h *Harness) CacheDir() string { return h.cacheDir }

// Store materializes (or reuses) the undirected store for a dataset key and
// returns its base path.
func (h *Harness) Store(key string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if base, ok := h.stores[key]; ok {
		return base, nil
	}
	ds, err := dataset(key)
	if err != nil {
		return "", err
	}
	base := filepath.Join(h.cacheDir, key)
	if _, err := graph.ReadMeta(base); err != nil {
		g, err := ds.Build()
		if err != nil {
			return "", fmt.Errorf("harness: build %s: %w", key, err)
		}
		if err := graph.WriteCSR(base, key, g); err != nil {
			return "", err
		}
	}
	h.stores[key] = base
	return base, nil
}

// Oriented returns the oriented store for a dataset key in the harness's
// configured StoreFormat. Orientation is deterministic, so the cache
// directory holds one oriented store per (dataset, format), named
// <dataset>.oriented.<format>: the first harness to need it orients with
// the given parallelism, and every later one — in this process or another
// sharing the directory — reuses it. A reused store's Result is read back
// from its files, its Duration from the wall time its builder recorded
// beside it, so orientation time reads the same whatever the cache held.
func (h *Harness) Oriented(key string, workers int) (string, *orient.Result, error) {
	base, err := h.Store(key)
	if err != nil {
		return "", nil, err
	}
	format, err := graph.ParseFormat(string(h.StoreFormat))
	if err != nil {
		return "", nil, err
	}
	cacheKey := key + "|" + string(format)
	h.mu.Lock()
	if e, ok := h.oriented[cacheKey]; ok {
		h.mu.Unlock()
		return e.base, e.res, nil
	}
	h.mu.Unlock()

	dst := fmt.Sprintf("%s.oriented.%s", base, format)
	res, err := storedOrientation(dst, format)
	if err != nil {
		if res, err = orientInto(base, dst, workers, format); err != nil {
			return "", nil, err
		}
	}
	h.mu.Lock()
	h.oriented[cacheKey] = orientEntry{base: dst, res: res}
	h.mu.Unlock()
	return dst, res, nil
}

// durationPath is the file beside an oriented store in the cache that
// records how long its orientation took, in decimal nanoseconds.
func durationPath(base string) string { return base + ".duration" }

// storedOrientation reads back the Result of an earlier orientation into
// dst, or fails when dst is not a complete oriented store in format.
func storedOrientation(dst string, format graph.Format) (*orient.Result, error) {
	d, err := graph.Open(dst)
	if err != nil {
		return nil, err
	}
	if !d.Meta.Oriented || d.Format() != format {
		return nil, fmt.Errorf("harness: %s is not an oriented %s store", dst, format)
	}
	in, err := orient.LoadInDegrees(dst, d.NumVertices())
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(durationPath(dst))
	if err != nil {
		return nil, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil || ns <= 0 {
		return nil, fmt.Errorf("harness: %s holds no orientation time", durationPath(dst))
	}
	return &orient.Result{
		Base:         dst,
		MaxOutDegree: d.Meta.MaxOutDegree,
		OutDegrees:   d.Degrees,
		InDegrees:    in,
		Duration:     time.Duration(ns),
	}, nil
}

// orientInto orients base into dst through a temporary store that is
// renamed into place file by file, the metadata last, so a reader never
// opens a partial store. Builders racing on one dst rename identical
// store files (orientation is deterministic) and their own measured
// durations. A failed build removes its temporary files.
func orientInto(base, dst string, workers int, format graph.Format) (*orient.Result, error) {
	tmp := fmt.Sprintf("%s.tmp%d.%d", dst, os.Getpid(), scratchSeq.Add(1))
	files := append([]string{durationPath(tmp), orient.InDegPath(tmp)}, graph.StoreFiles(tmp, format)...)
	res, err := orient.OrientFormat(base, tmp, workers, format)
	if err == nil {
		err = os.WriteFile(durationPath(tmp), []byte(strconv.FormatInt(int64(res.Duration), 10)+"\n"), 0o644)
	}
	for _, f := range files {
		if err != nil {
			break
		}
		err = os.Rename(f, dst+strings.TrimPrefix(f, tmp))
	}
	if err != nil {
		for _, f := range files {
			os.Remove(f)
		}
		return nil, fmt.Errorf("harness: orient %s: %w", base, err)
	}
	res.Base = dst
	return res, nil
}

// LoadCSR loads a dataset fully into memory (for the in-memory
// comparators).
func (h *Harness) LoadCSR(key string) (*graph.CSR, error) {
	base, err := h.Store(key)
	if err != nil {
		return nil, err
	}
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	return d.LoadCSR()
}

// StoreBytes reports the size of a dataset's store files (Table I "Size").
func (h *Harness) StoreBytes(key string) (int64, error) {
	base, err := h.Store(key)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range []string{graph.DegPath(base), graph.AdjPath(base)} {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
