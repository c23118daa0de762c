// Command svcbench is the repository's end-to-end benchmark: it starts
// internal/service behind net/http in a server process of its own and
// drives it over loopback through one of three closed-loop workloads,
// checking every answer against exact figures computed from the rows
// it generated.
//
//	svcbench -workload ingest|estimate|mixed -seed N -seconds S -trace 0|1
//	svcbench serve -ckpt DIR          (the server process; started by the above)
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// replays the same inputs layer by layer and prints the per-layer
// ledger (see README.md). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "svcbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	ckpt := fs.String("ckpt", "", "checkpoint directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckpt == "" {
		return fmt.Errorf("-ckpt is required")
	}
	return serve(*ckpt)
}

var workloads = map[string]func(*bench, float64) error{
	"ingest":   runIngest,
	"estimate": runEstimate,
	"mixed":    runMixed,
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "ingest, estimate or mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured run length in seconds; sets the op counts")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for checkpoints and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := newBench(*seed, *seconds, dir)
	defer b.stopServer()
	if *trace == 1 {
		err = b.setup(0)
		if err == nil {
			err = runTraced(b, *name)
		}
	} else {
		for r := 0; r < servers && err == nil; r++ {
			if err = b.setup(r); err == nil {
				err = run(b, 1.0/servers)
			}
		}
		b.finish()
	}
	b.stopServer()
	if err != nil {
		return err
	}
	return b.print(*name, *seed)
}

// print writes the human-readable lines, then the result object as the
// last line.
func (b *bench) print(name string, seed uint64) error {
	env, err := json.Marshal(b.env)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d seconds %d\nenv %s\n", name, seed, b.seconds, env)
	for _, n := range b.order {
		fmt.Printf("  %-40s %14.6g %-7s per server %.4g\n", n, median(b.figs[n]), b.units[n], b.figs[n])
	}
	names := make([]string, 0, len(b.metrics))
	for k := range b.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", k, b.metrics[k].Value, b.metrics[k].Unit)
	}
	attempted, failed := b.ops.attempted.Load(), b.ops.failed.Load()
	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
