package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	itemsketch "repro"
	"repro/internal/bitvec"
	"repro/internal/service"
)

// serviceConfig is the one configuration every workload measures:
// 8 shards, d = 64, 4096-row reservoirs, Misra–Gries k = 64, a
// 32768-row sliding window, no count sketch, no coalescer, and explicit
// checkpoints only. The window and sketch parameters are spelled out at
// the service's defaults, so the traced run's shard replicas can be
// built from the same values.
func serviceConfig(ckptDir string) service.Config {
	return service.Config{
		Shards:         8,
		NumAttrs:       numAttrs,
		SampleCapacity: 4096,
		HeavyK:         64,
		Window: &service.WindowConfig{Rows: 32768, Buckets: 8, SampleCapacity: 256,
			DecayK: 64, DecayLambda: 0.8},
		Params: itemsketch.Params{K: 2, Eps: epsilon, Delta: 0.05,
			Mode: itemsketch.ForAll, Task: itemsketch.Estimator},
		Seed:            1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 0,
	}
}

// serverStats is the benchmark-only /bench/stats body: the server
// process's recovery time, its runtime counters and the service's
// merge-build counters.
type serverStats struct {
	RecoverMS     float64             `json:"recover_ms"`
	RecoverShards string              `json:"recover_shards"`
	TotalAlloc    uint64              `json:"total_alloc"`
	NumGC         uint32              `json:"num_gc"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	GoVersion     string              `json:"go_version"`
	Kernel        string              `json:"kernel_features"`
	MergeBuilds   service.MergeBuilds `json:"merge_builds"`
}

// serve runs the service behind net/http on a loopback port until the
// process is killed. It prints "listening <addr>" once the socket is
// bound; the load generator waits for that line.
//
// Before listening it times its own recovery: service.New, which loads
// every shard's state from the checkpoint directory, plus the first
// estimate. /bench/stats reports that time and how many shards the
// estimate answered from.
func serve(ckptDir string) error {
	t0 := time.Now()
	svc, err := service.New(serviceConfig(ckptDir))
	if err != nil {
		return fmt.Errorf("start service: %w", err)
	}
	probe, err := itemsketch.NewItemset(0, 1)
	if err != nil {
		return err
	}
	_, p, err := svc.Estimate(context.Background(), []itemsketch.Itemset{probe})
	if err != nil {
		return fmt.Errorf("first estimate: %w", err)
	}
	recoverMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	recoverShards := p.String()
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/bench/stats", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serverStats{
			RecoverMS:     recoverMS,
			RecoverShards: recoverShards,
			TotalAlloc:    ms.TotalAlloc,
			NumGC:         ms.NumGC,
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			GoVersion:     runtime.Version(),
			Kernel:        bitvec.KernelFeatures(),
			MergeBuilds:   svc.MergeBuilds(),
		})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Fprintf(os.Stdout, "listening %s\n", ln.Addr())
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	return srv.Serve(ln)
}
