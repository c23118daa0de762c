package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// startServer re-executes it in serve mode.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// outcome is what a run must reproduce exactly from its seed.
type outcome struct {
	attempted, failed int64
	checkpointBytes   []float64
	estimateErrP99    []float64
	perMine, perHH    float64
}

// smallRun runs one workload on one server at a tenth of one second's
// op count (the preload is the full batch pool).
func smallRun(t *testing.T, name string, seed uint64) outcome {
	t.Helper()
	b := newBench(seed, 1, t.TempDir())
	defer b.stopServer()
	if err := b.setup(0); err != nil {
		t.Fatal(err)
	}
	if err := workloads[name](b, 0.1); err != nil {
		t.Fatal(err)
	}
	perMine, perHH, err := b.mergeBuildsPerOp(name)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{
		attempted:       b.ops.attempted.Load(),
		failed:          b.ops.failed.Load(),
		checkpointBytes: b.figs["checkpoint_bytes"],
		estimateErrP99:  b.figs["estimate_err_p99"],
		perMine:         perMine,
		perHH:           perHH,
	}
}

func TestSameSeedReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	// Merge builds per request are what the workloads are built to show:
	// none on the unchanging estimate service, one per read after every
	// mixed-workload ingest.
	wantMerges := map[string]float64{"ingest": 0, "estimate": 0, "mixed": 1}
	for _, name := range []string{"ingest", "estimate", "mixed"} {
		t.Run(name, func(t *testing.T) {
			a, b := smallRun(t, name, 7), smallRun(t, name, 7)
			if a.failed != 0 {
				t.Fatalf("%d of %d ops failed", a.failed, a.attempted)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different outcomes:\n%+v\n%+v", a, b)
			}
			if a.perMine != wantMerges[name] || a.perHH != wantMerges[name] {
				t.Fatalf("merge builds per mine/hh = %v/%v, want %v", a.perMine, a.perHH, wantMerges[name])
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, b, c := newInputs(7), newInputs(7), newInputs(8)
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("same seed generated different inputs")
	}
	if a.fingerprint() == c.fingerprint() {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
	if a.planted == c.planted && a.itemsets == c.itemsets {
		t.Fatal("seeds 7 and 8 planted the same itemset and drew the same queries")
	}
}

// fingerprint hashes the generated stream and queries.
func (in *inputs) fingerprint() uint64 {
	h := fnv.New64a()
	for b := range in.bodies {
		h.Write(in.bodies[b])
	}
	for i := range in.reqBody {
		h.Write(in.reqBody[i])
	}
	return h.Sum64()
}
