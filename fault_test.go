package pdtl

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdtl/internal/graph"
)

// TestCountDistributedSurvivesDeadWorker: the public handle API's view of
// the fault-tolerance layer. One of three workers is down before the run;
// g.CountDistributed must still return the exact count, with the failure
// visible in ClusterResult.Failures — and a fail-fast run (MaxRetries < 0)
// must error instead.
func TestCountDistributedSurvivesDeadWorker(t *testing.T) {
	base := filepath.Join(t.TempDir(), "fault")
	if _, err := GeneratePowerLaw(base, 400, 4000, 2.0, 31); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want, err := g.Count(context.Background(), Options{Workers: 2, MemEdges: 512})
	if err != nil {
		t.Fatal(err)
	}

	// Three workers; kill one before the run so the failure is
	// deterministic at this level (mid-run kills are chaos-tested inside
	// internal/cluster, where the RPC layer can be instrumented).
	live, err := StartLocalWorkers(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	dead, err := ServeWorker("127.0.0.1:0", "doomed", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	addrs := []string{live.Addrs()[0], deadAddr, live.Addrs()[1]}

	for _, mode := range []string{"static", "stealing"} {
		res, err := g.CountDistributed(context.Background(), addrs, ClusterOptions{
			Workers: 2, MemEdges: 512, Sched: mode,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: run with dead worker failed: %v", mode, err)
		}
		if res.Triangles != want.Triangles {
			t.Errorf("%s: triangles = %d, want %d", mode, res.Triangles, want.Triangles)
		}
		found := false
		for _, f := range res.Failures {
			if f.Addr == deadAddr {
				found = true
				if f.Err == "" || f.Time.IsZero() {
					t.Errorf("%s: incomplete failure entry: %+v", mode, f)
				}
			}
		}
		if !found {
			t.Errorf("%s: dead worker %s missing from Failures: %+v", mode, deadAddr, res.Failures)
		}
	}

	if _, err := g.CountDistributed(context.Background(), addrs, ClusterOptions{
		Workers: 2, MemEdges: 512, MaxRetries: -1,
	}); err == nil {
		t.Fatal("MaxRetries<0: want error when a worker is unreachable")
	}
}

// TestCountFailsOnDamagedCompressedStore: a compressed oriented store
// damaged after the handle opened it must fail Count with an error — raised
// by the bounds-index build of the first windowed pass, never a panic — and
// since a failed build is not cached, a second Count fails again.
func TestCountFailsOnDamagedCompressedStore(t *testing.T) {
	for _, damage := range []string{"truncated", "corrupt"} {
		t.Run(damage, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "damaged")
			if _, err := GeneratePowerLaw(base, 400, 4000, 2.0, 31); err != nil {
				t.Fatal(err)
			}
			g, err := Open(base)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			ctx := context.Background()
			// One runner over a whole-graph budget scans in a single full
			// window: it orients into the compressed store without
			// building the bounds index.
			opt := Options{Workers: 1, MemEdges: 1 << 20, StoreFormat: "compressed"}
			if _, err := g.Count(ctx, opt); err != nil {
				t.Fatal(err)
			}
			path := graph.CAdjPath(g.OrientedBase())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Damage the tail: the first window loads from the front, so
			// the index build is the first read to reach the damage.
			tail := len(blob) - len(blob)/10
			if damage == "truncated" {
				blob = blob[:tail]
			} else {
				for i := tail; i < len(blob); i++ {
					blob[i] = 0xFF
				}
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			opt.MemEdges = 64
			for i := 0; i < 2; i++ {
				_, err := g.Count(ctx, opt)
				if err == nil {
					t.Fatalf("count %d over the %s store succeeded", i+1, damage)
				}
				if !strings.Contains(err.Error(), "bounds index") {
					t.Fatalf("count %d: error %q does not come from the bounds-index build", i+1, err)
				}
			}
		})
	}
}
