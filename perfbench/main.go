// Command perfbench is the repository's benchmark: one process that
// generates a seeded workload, measures PDTL end to end (or, with
// --trace 1, layer by layer), checks every result against an exact
// reference, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload ooc-skew --seed 1 --seconds 20 --trace 0
//
// It runs from the repository root and reads the metric names and units
// from BENCHMARK.json. Everything it writes goes under .bench_build: the
// per-run stores (removed at exit), the traced run's spans, and the exact
// counters that later runs of the same seed and binary must repeat. See
// perfbench/METRICS.md for the workloads and what each metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"pdtl/internal/obs"
)

// buildDir holds everything the benchmark writes in its checkout.
const buildDir = ".bench_build"

// A measuring run sets its workload up at least setupReps times, and more
// (up to setupMaxReps) while the set-ups together take under
// setupMinTime, so a set-up of milliseconds is still a steady median.
// setup_s is their median.
const (
	setupReps    = 3
	setupMaxReps = 15
	setupMinTime = time.Second
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measuring time of the run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := benchmark(*workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func benchmark(name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runs := filepath.Join(buildDir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(runs, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	minReps, maxReps := setupReps, setupMaxReps
	if traced {
		minReps, maxReps = 1, 1
	}
	var e *env
	var setupTimes []float64
	var setupTotal time.Duration
	for i := 0; i < maxReps && (i < minReps || setupTotal < setupMinTime); i++ {
		if e != nil {
			e.close()
			if err := os.RemoveAll(e.dir); err != nil {
				return err
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return err
		}
		start := time.Now()
		if e, err = setup(ctx, w, sub, seed); err != nil {
			return err
		}
		d := time.Since(start)
		setupTotal += d
		setupTimes = append(setupTimes, secs(d))
	}
	defer e.close()

	refStart := time.Now()
	ref, err := computeReference(e.base, e.cycle)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "setup %.3gs ×%d, reference %.3gs: %d edges, %d triangles, budget %d entries\n",
		median(setupTimes), len(setupTimes), secs(time.Since(refStart)), e.edges, ref.triangles, e.opt.MemEdges)
	// The peak-RSS window opens here, after input generation and the
	// reference computation, which are the benchmark's own work.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	b := &bench{e: e, ref: ref, t: &tally{}, x: &exact{}, layer: obs.NoSpan}
	var values map[string]float64
	var want []metricSpec
	if traced {
		b.trace = obs.NewTrace(traceSpans)
		values, err = b.layers(ctx, seconds)
		want = spec.PerLayer
		if err == nil {
			err = writeTrace(b.trace, filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed)))
		}
	} else {
		values, err = b.endToEnd(ctx, seconds, median(setupTimes))
		want = spec.EndToEnd
	}
	if err != nil {
		return err
	}
	if err := b.checkCounters(w.name, seed, traced); err != nil {
		return err
	}

	res := result{
		Correct:   b.t.failed.Load() == 0,
		Attempted: b.t.attempted.Load(),
		Failed:    b.t.failed.Load(),
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s in BENCHMARK.json was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(want) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(values), len(want))
	}
	for _, msg := range b.t.errs {
		fmt.Fprintln(os.Stderr, "failed:", msg)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// traceSpans is the traced run's span capacity, well above the few
// thousand spans its live phase records.
const traceSpans = 1 << 16

// writeTrace writes t as Chrome trace_event JSON. A full slab drops spans
// and would bias the span medians, so it is an error.
func writeTrace(t *obs.Trace, path string) error {
	if n := t.Dropped(); n > 0 {
		return fmt.Errorf("trace dropped %d spans", n)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkCounters compares the run's exact counters with those an earlier
// run of the same workload, seed, mode, and binary recorded, and records
// them if none did. Any difference is drift, which is a failure.
func (b *bench) checkCounters(workload string, seed int64, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	path := filepath.Join(buildDir, "counters", fmt.Sprintf("%s-seed%d-trace%t-%s.json",
		workload, seed, traced, hex.EncodeToString(h.Sum(nil))[:16]))
	b.x.mu.Lock()
	vals := b.x.vals
	b.x.mu.Unlock()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(vals, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]uint64
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if old, ok := prev[n]; ok && old != vals[n] {
			b.t.fail("%s drifted from an earlier run of this seed: %d then %d", n, old, vals[n])
		}
	}
	return nil
}
