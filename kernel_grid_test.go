package pdtl_test

import (
	"context"
	"path/filepath"
	"testing"

	"pdtl"
	"pdtl/internal/scan"
)

// BenchmarkWarmCountKernels is the warm-Count kernel grid of
// EXPERIMENTS.md: every intersection kernel on the three perfbench workload
// shapes at seed 1, with the pins perfbench uses (Workers=2, its store
// formats and budgets). Each shape is oriented once by an untimed Count;
// each kernel is then warmed by one more, and every timed iteration is one
// Count on the open handle, checked against the warm-up's triangles.
//
//	go test -run '^$' -bench WarmCountKernels -benchtime 10x -count 3 .
func BenchmarkWarmCountKernels(b *testing.B) {
	const workers = 2
	shapes := []struct {
		name, format string
		// tight is perfbench's out-of-core budget: |E|/(16·P) entries, at
		// least 2·d*max; otherwise the budget holds the whole graph.
		tight bool
		gen   func(base string) (pdtl.GraphInfo, error)
	}{
		{"inmem-dense", "plain", false, func(base string) (pdtl.GraphInfo, error) {
			return pdtl.GenerateRMAT(base, 16, 16, 1)
		}},
		{"ooc-skew", "compressed", true, func(base string) (pdtl.GraphInfo, error) {
			return pdtl.GeneratePowerLaw(base, 1<<15, 29<<15, 1.9, 1)
		}},
		{"live-churn", "plain", false, func(base string) (pdtl.GraphInfo, error) {
			return pdtl.GeneratePowerLaw(base, 1<<14, 10<<14, 2.5, 1)
		}},
	}
	ctx := context.Background()
	for _, s := range shapes {
		base := filepath.Join(b.TempDir(), s.name)
		if _, err := s.gen(base); err != nil {
			b.Fatal(err)
		}
		g, err := pdtl.Open(base)
		if err != nil {
			b.Fatal(err)
		}
		opt := pdtl.Options{Workers: workers, MemEdges: int(g.Info().NumEdges), StoreFormat: s.format}
		if s.tight {
			opt.MemEdges = max(opt.MemEdges/(16*workers), 1)
		}
		warm, err := g.Count(ctx, opt)
		if err != nil {
			b.Fatal(err)
		}
		if s.tight {
			opt.MemEdges = max(opt.MemEdges, 2*int(warm.MaxOutDegree))
		}
		for _, kind := range scan.KernelKinds() {
			opt.Kernel = string(kind)
			b.Run(s.name+"/"+opt.Kernel, func(b *testing.B) {
				if _, err := g.Count(ctx, opt); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := g.Count(ctx, opt)
					if err != nil {
						b.Fatal(err)
					}
					if res.Triangles != warm.Triangles {
						b.Fatalf("%d triangles, warm-up counted %d", res.Triangles, warm.Triangles)
					}
				}
			})
		}
		g.Close()
	}
}
