package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Op counts are fixed per second of --seconds, so a run's work depends
// on its arguments only, never on how fast the machine happens to be;
// the rates were sized on a 2-CPU container so a run takes about
// --seconds.
const (
	servers          = 5   // server processes per run, each set up and measured in turn
	recoverReps      = 10  // crash restarts per ingest server
	ingestPerSecond  = 500 // 256-row batches per second of --seconds
	estimatePerSec   = 3200
	mixedCyclesPerS  = 100
	estimatesPerSide = 32 // estimate requests per mine and per heavy-hitters request
	estimateGroup    = estimatesPerSide + 2
	loadConns        = 2 // connections of the ingest and estimate workloads
)

var (
	mineBody     = []byte(fmt.Sprintf(`{"min_support":%v,"max_k":%d}`, minSupport, mineMaxK))
	hhBody       = []byte(fmt.Sprintf(`{"phi":%v}`, hhPhi))
	hhWindowBody = []byte(fmt.Sprintf(`{"phi":%v,"window":true}`, hhPhi))
)

// gated are the end-to-end metrics of the result's last line, the same
// in every workload. The latency, throughput, checkpoint and recovery
// figures are printed by name above it but not gated: on a shared 2-CPU
// host the speed of the same work drifts by 1.3–1.9× over minutes,
// more than any bound a gate may have, and the spread of those figures
// across runs follows that drift (see README.md). Memory and set-up
// time are what repeat.
var gated = []string{"setup_s", "peak_rss_mb"}

// bench is one benchmark run against one server process at a time.
type bench struct {
	in       *inputs
	seconds  int
	workdir  string
	ops      tally
	proc     *serverProc
	cli      *client
	ckptDir  string
	ingested int64 // batches acknowledged so far
	mines    atomic.Int64
	hhs      atomic.Int64 // whole-stream heavy-hitters requests

	// Each server process contributes one value per figure, and a run
	// reports the median over its servers: on a shared machine the speed
	// of the same work drifts by tens of percent over seconds to minutes.
	figs  map[string][]float64
	order []string // figure names in first-reported order
	units map[string]string

	metrics map[string]metric // the result's metrics
	env     map[string]any
}

func newBench(seed uint64, seconds int, workdir string) *bench {
	return &bench{
		in:      newInputs(seed),
		seconds: seconds,
		workdir: workdir,
		figs:    map[string][]float64{},
		units:   map[string]string{},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// note records one server's value of a figure.
func (b *bench) note(name string, v float64, unit string) {
	if _, ok := b.figs[name]; !ok {
		b.order = append(b.order, name)
	}
	b.figs[name] = append(b.figs[name], v)
	b.units[name] = unit
}

// finish sets the result's metrics to the medians over the servers.
func (b *bench) finish() {
	b.metrics = map[string]metric{}
	for _, m := range gated {
		b.metrics[m] = metric{median(b.figs[m]), b.units[m]}
	}
}

// stopServer stops the current server, if any.
func (b *bench) stopServer() {
	if b.proc != nil {
		b.cli.close()
		b.proc.stop()
		b.proc, b.cli = nil, nil
	}
}

// setup starts a server on a fresh checkpoint directory and preloads
// the whole batch pool over one connection: 262144 rows, which fills
// every shard's reservoir eight times over and its window once, so the
// measured phase starts in the steady replacement regime. Preloading
// serially makes the samples a function of the seed alone. Its time is
// one setup_s value.
func (b *bench) setup(r int) error {
	b.stopServer()
	if b.ckptDir != "" {
		if err := os.RemoveAll(b.ckptDir); err != nil {
			return err
		}
	}
	b.ckptDir = filepath.Join(b.workdir, fmt.Sprintf("ckpt-%d", r))
	if err := os.MkdirAll(b.ckptDir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	proc, err := startServer(b.ckptDir)
	if err != nil {
		return err
	}
	b.proc, b.cli = proc, newClient(proc.base, loadConns, &b.ops)
	for i := int64(0); i < poolSize; i++ {
		b.ingest(i)
	}
	b.ingested = poolSize
	// Fill the merge caches, so an estimate phase measures only hits.
	b.mine(b.ingested)
	b.heavyHitters(false)
	b.note("setup_s", time.Since(t0).Seconds(), "s")
	st, err := b.cli.getStats()
	if err != nil {
		return fmt.Errorf("server stats: %w", err)
	}
	b.env = environment(st, b.ckptDir)
	return nil
}

func (b *bench) ingest(i int64) time.Duration {
	el, data, err := b.cli.post("/v1/ingest", b.in.bodies[i%poolSize])
	if err == nil {
		err = checkIngest(data)
	}
	b.ops.record(err)
	return el
}

func (b *bench) estimate(req int, n int64, window bool) (time.Duration, []float64) {
	req %= reqPool
	body := b.in.reqBody[req]
	if window {
		body = b.in.winBody[req]
	}
	el, data, err := b.cli.post("/v1/estimate", body)
	var errs []float64
	if err == nil {
		errs, err = b.in.checkEstimate(data, b.in.requests[req], n, window)
	}
	b.ops.record(err)
	return el, errs
}

func (b *bench) mine(n int64) time.Duration {
	b.mines.Add(1)
	el, data, err := b.cli.post("/v1/mine", mineBody)
	if err == nil {
		err = b.in.checkMine(data, n)
	}
	b.ops.record(err)
	return el
}

func (b *bench) heavyHitters(window bool) time.Duration {
	body := hhBody
	if window {
		body = hhWindowBody
	} else {
		b.hhs.Add(1)
	}
	el, data, err := b.cli.post("/v1/heavyhitters", body)
	if err == nil {
		err = b.in.checkHeavyHitters(data)
	}
	b.ops.record(err)
	return el
}

func (b *bench) peakRSS() error {
	mb, err := b.proc.peakRSSMB()
	if err != nil {
		return err
	}
	b.note("peak_rss_mb", mb, "MB")
	return nil
}

// notePercentiles records the p50, p90 and p99 of lat as name_pNN_ms.
func (b *bench) notePercentiles(name string, lat []float64) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50_ms", 0.50}, {"_p90_ms", 0.90}, {"_p99_ms", 0.99}} {
		b.note(name+q.suffix, quantile(lat, q.q), "ms")
	}
}

// Each workload function measures one server: share is the fraction of
// the run's op count it runs.

// runIngest: two connections post batches, then one checkpoint and
// repeated crash recoveries from it.
func runIngest(b *bench, share float64) error {
	n := int(float64(b.seconds*ingestPerSecond) * share)
	start := b.ingested
	l := closedLoop(loadConns, n, func(i int) time.Duration { return b.ingest(start + int64(i)) })
	b.ingested += int64(n)
	b.note("ingest_rows_per_s", float64(n*batchRows)/l.wall.Seconds(), "rows/s")
	b.notePercentiles("ingest", l.latencies(func(int) bool { return true }))
	if err := b.peakRSS(); err != nil {
		return err
	}

	el, _, err := b.cli.post("/v1/checkpoint", nil)
	b.ops.record(err)
	b.note("checkpoint_ms", ms(el), "ms")
	ents, err := os.ReadDir(b.ckptDir)
	if err != nil {
		return err
	}
	var size int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	b.note("checkpoint_bytes", float64(size), "bytes")

	// Each restarted server times its own recovery — service.New on the
	// checkpoint plus its first complete 8/8 estimate — so process start
	// and loader time stay out of the figure. The first estimate over the
	// socket then checks the recovered state.
	var rec []float64
	for r := 0; r < recoverReps; r++ {
		b.stopServer()
		proc, err := startServer(b.ckptDir)
		if err != nil {
			return err
		}
		b.proc, b.cli = proc, newClient(proc.base, 1, &b.ops)
		st, err := b.cli.getStats()
		if err == nil && st.RecoverShards != "8/8" {
			err = fmt.Errorf("recovery: first estimate answered %s, want 8/8", st.RecoverShards)
		}
		b.ops.record(err)
		if err != nil {
			continue
		}
		rec = append(rec, st.RecoverMS)
		b.estimate(r, b.ingested, false)
	}
	if len(rec) == 0 {
		return fmt.Errorf("no recovery succeeded")
	}
	b.note("recover_ms", median(rec), "ms")
	return nil
}

// estimateOp runs op i of the estimate workload's schedule: groups of
// estimatesPerSide estimates, one mine and one heavy-hitters request.
func (b *bench) estimateOp(i int) time.Duration {
	switch k := i % estimateGroup; {
	case k < estimatesPerSide:
		el, _ := b.estimate(i/estimateGroup*estimatesPerSide+k, b.ingested, false)
		return el
	case k == estimatesPerSide:
		return b.mine(b.ingested)
	default:
		return b.heavyHitters(false)
	}
}

// runEstimate: two connections send estimates against the preloaded,
// unchanging service, with one mine and one heavy-hitters request per
// estimatesPerSide estimates; every mine and heavy-hitters request
// hits the merge cache the set-up filled.
func runEstimate(b *bench, share float64) error {
	n := int(float64(b.seconds*estimatePerSec)*share) / estimateGroup * estimateGroup
	l := closedLoop(loadConns, n, b.estimateOp)
	isEst := func(i int) bool { return i%estimateGroup < estimatesPerSide }
	b.note("estimate_per_s", float64(n/estimateGroup*estimatesPerSide)/l.wall.Seconds(), "req/s")
	b.notePercentiles("estimate", l.latencies(isEst))
	b.note("mine_p50_ms", quantile(l.latencies(func(i int) bool { return i%estimateGroup == estimatesPerSide }), 0.5), "ms")
	b.note("heavyhitters_p50_ms", quantile(l.latencies(func(i int) bool { return i%estimateGroup == estimatesPerSide+1 }), 0.5), "ms")
	if err := b.peakRSS(); err != nil {
		return err
	}
	errP99, err := b.estimateError()
	if err != nil {
		return err
	}
	b.note("estimate_err_p99", errP99, "freq")
	return nil
}

// estimateError asks once for every itemset of the query pool and
// returns the 99th percentile of |estimate − exact|.
func (b *bench) estimateError() (float64, error) {
	idx := make([]int, queryPool)
	sets := make([][]int, queryPool)
	for q := range idx {
		idx[q] = q
		sets[q] = attrsOf(b.in.itemsets[q])
	}
	_, data, err := b.cli.post("/v1/estimate", mustJSON(map[string]any{"itemsets": sets}))
	var errs []float64
	if err == nil {
		errs, err = b.in.checkEstimate(data, idx, b.ingested, false)
	}
	b.ops.record(err)
	if errs == nil {
		return 0, fmt.Errorf("estimate error: %w", err)
	}
	return quantile(errs, 0.99), nil
}

// mixedCycle is the fixed request order of one mixed cycle.
var mixedCycle = []string{"ingest", "estimate", "estimate", "estimate", "estimate",
	"estimate_window", "mine", "heavyhitters", "heavyhitters_window"}

// cycle runs mixed cycle c: one ingest followed by the reads in
// mixedCycle. It returns the latency of each request, in mixedCycle
// order.
func (b *bench) cycle(c int) []time.Duration {
	els := make([]time.Duration, len(mixedCycle))
	est := 0
	for k, op := range mixedCycle {
		switch op {
		case "ingest":
			els[k] = b.ingest(b.ingested)
			b.ingested++
		case "estimate":
			els[k], _ = b.estimate(4*c+est, b.ingested, false)
			est++
		case "estimate_window":
			els[k], _ = b.estimate(c, b.ingested, true)
		case "mine":
			els[k] = b.mine(b.ingested)
		case "heavyhitters":
			els[k] = b.heavyHitters(false)
		case "heavyhitters_window":
			els[k] = b.heavyHitters(true)
		}
	}
	return els
}

// runMixed: one connection runs mixed cycles. Every ingest advances
// every shard's snapshot generation, so the mine and heavy-hitters
// requests that follow pay a cold cross-shard merge.
func runMixed(b *bench, share float64) error {
	n := int(float64(b.seconds*mixedCyclesPerS) * share)
	per := map[string][]float64{}
	l := closedLoop(1, n, func(c int) time.Duration {
		var total time.Duration
		for k, el := range b.cycle(c) {
			per[mixedCycle[k]] = append(per[mixedCycle[k]], ms(el))
			total += el
		}
		return total
	})
	cyc := l.latencies(func(int) bool { return true })
	b.note("cycles_per_s", float64(n)/l.wall.Seconds(), "1/s")
	b.note("cycle_p50_ms", quantile(cyc, 0.50), "ms")
	b.note("cycle_p90_ms", quantile(cyc, 0.90), "ms")
	for _, op := range []string{"ingest", "estimate", "estimate_window", "mine", "heavyhitters", "heavyhitters_window"} {
		b.note(op+"_p50_ms", quantile(per[op], 0.50), "ms")
	}
	return b.peakRSS()
}
