package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	itemsketch "repro"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/stream"
)

// The traced run breaks each end-to-end figure into layers. Spans are
// recorded only here, in the benchmark's own code, around calls into
// each module's public functions; nothing inside the program is
// instrumented. The run has three parts:
//
//  1. a few requests of the workload's own schedule on the server
//     process, to count merge builds per mine and per heavy-hitters
//     request;
//  2. a battery on the server process over one connection — ingests,
//     estimates, ingest→mine→heavy-hitters cycles — reading the
//     server's runtime.MemStats between its blocks;
//  3. the ledger, all in this one process, so that every part of it is
//     timed on the same Service, heap and clock: the Service behind
//     net/http on a loopback port, a wrapper that records a span around
//     Handler().ServeHTTP inside each request's client span, the Service
//     methods called directly, and shard replicas — built from the same
//     constructors and configuration — replaying the module calls each
//     shard makes, one goroutine per shard as the service runs them.
//     Every iteration does the same work, but only the requests of odd
//     ones are traced; the difference of the median request latencies
//     of the two is the tracing overhead.
//
// Every traced iteration splits its request's client latency:
//
//	e2e                   = net + service.http residual + Σ stages + service residual
//	net                   = client latency − handler span (socket, net/http)
//	service.http residual = handler span − the direct Service call (JSON, validation)
//	stage                 = the stage's share of the parallel replay: each
//	                        instant is shared equally among the stage spans running then
//	service residual      = Service call − Σ stages (routing, hand-offs, locks)
//
// The ledger reports each part's mean over the traced iterations in
// which no timed call was slower than the trimQ quantile of its kind: a
// GC pause or a preemption hits one call of an iteration and not the
// call it is paired with, and would otherwise decide a residual. The
// parts add up to e2e by their definition. What is checked is that each
// comes out non-negative, within ledgerTol of e2e: a negative net would
// mean a handler outlasting its own request, a negative service
// residual replayed stages covering more than the Service call they
// stand for (Σ stages > service.<op>).
const (
	batteryOps = 200 // ops per battery block
	ledgerOps  = 300 // in-process ledger iterations, half of them traced
	recoverOps = 5   // in-process recoveries
	kernelOps  = 200000
	trimQ      = 0.8
	ledgerTol  = 0.05
)

// span is one timed call. Times are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// time runs f inside a span and returns its duration in µs.
func (r *recorder) time(name, parent string, req int, f func()) float64 {
	s := r.now()
	f()
	e := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name, s, e, parent, req})
	r.mu.Unlock()
	return float64(e-s) / 1e3
}

// byReq returns the durations in µs of the spans named name under
// parent, by request id.
func (r *recorder) byReq(name, parent string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range r.spans {
		if s.Name == name && s.Parent == parent {
			out[s.Req] = float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// median returns the median duration in µs of the spans named name
// under parent.
func (r *recorder) median(name, parent string) float64 {
	var xs []float64
	for _, s := range r.spans {
		if s.Name == name && s.Parent == parent {
			xs = append(xs, float64(s.End-s.Start)/1e3)
		}
	}
	return median(xs)
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func runTraced(b *bench, name string) error {
	rec := &recorder{t0: time.Now()}
	layers := map[string]metric{}
	put := func(n string, v float64, unit string) { layers[n] = metric{v, unit} }

	// 1. A few scheduled requests, to count merge builds per request.
	perMine, perHH, err := b.mergeBuildsPerOp(name)
	if err != nil {
		return err
	}
	put("service.merge_builds_per_mine", perMine, "count")
	put("service.merge_builds_per_hh", perHH, "count")

	// 2. The server's runtime counters.
	if err := runtimeCounters(b, put); err != nil {
		return err
	}

	// 3. The ledger and the module calls, in process.
	if err := inProcess(b, rec, put); err != nil {
		return err
	}

	if err := writeSpans(b.tracePath(name), rec); err != nil {
		return err
	}
	b.metrics = layers
	b.order = nil
	return nil
}

// mergeBuildsPerOp runs a few requests of the workload's own schedule
// on the current server and returns the cross-shard merges the server
// built per mine and per whole-stream heavy-hitters request. The ingest
// schedule has neither, so both are 0 there.
func (b *bench) mergeBuildsPerOp(name string) (perMine, perHH float64, err error) {
	if name == "ingest" {
		return 0, 0, nil
	}
	before, err := b.cli.getStats()
	if err != nil {
		return 0, 0, err
	}
	mines0, hhs0 := b.mines.Load(), b.hhs.Load()
	switch name {
	case "estimate":
		for i := 0; i < estimateGroup; i++ {
			b.estimateOp(i)
		}
	case "mixed":
		for c := 0; c < 4; c++ {
			b.cycle(c)
		}
	}
	after, err := b.cli.getStats()
	if err != nil {
		return 0, 0, err
	}
	return perOp(after.MergeBuilds.Mine-before.MergeBuilds.Mine, b.mines.Load()-mines0),
		perOp(after.MergeBuilds.MisraGries-before.MergeBuilds.MisraGries, b.hhs.Load()-hhs0), nil
}

func perOp(n, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// runtimeCounters runs three blocks on the server over one connection —
// batteryOps ingests, batteryOps estimates, batteryOps
// ingest→mine→heavy-hitters cycles — and reports the server process's
// allocation and GC counts per op from its runtime.MemStats.
func runtimeCounters(b *bench, put func(string, float64, string)) error {
	b.cli.close()
	b.cli = newClient(b.proc.base, 1, &b.ops)
	var st [4]serverStats
	var err error
	if st[0], err = b.cli.getStats(); err != nil {
		return err
	}
	for i := 0; i < batteryOps; i++ {
		b.ingest(b.ingested)
		b.ingested++
	}
	if st[1], err = b.cli.getStats(); err != nil {
		return err
	}
	for i := 0; i < batteryOps; i++ {
		b.estimate(i, b.ingested, false)
	}
	if st[2], err = b.cli.getStats(); err != nil {
		return err
	}
	for i := 0; i < batteryOps; i++ {
		b.ingest(b.ingested)
		b.ingested++
		b.mine(b.ingested)
		b.heavyHitters(false)
	}
	if st[3], err = b.cli.getStats(); err != nil {
		return err
	}
	put("runtime.alloc_bytes_per_ingest", float64(st[1].TotalAlloc-st[0].TotalAlloc)/batteryOps, "bytes")
	put("runtime.alloc_bytes_per_estimate", float64(st[2].TotalAlloc-st[1].TotalAlloc)/batteryOps, "bytes")
	put("runtime.gc_cycles_per_1k_ops", float64(st[3].NumGC-st[0].NumGC)*1000/(5*batteryOps), "count")
	return nil
}

// shardReplica holds the sketches one shard keeps, built from the same
// public constructors and configuration the service uses.
type shardReplica struct {
	res *stream.Reservoir
	mg  *stream.MisraGries
	win *stream.WindowedReservoir
	dmg *stream.DecayedMisraGries
	db  *dataset.Database // the last published, column-indexed sample
}

func newReplica(i int) (*shardReplica, error) {
	cfg := serviceConfig("")
	w := cfg.Window
	r := &shardReplica{}
	var err error
	seed := uint64(i + 1)
	if r.res, err = stream.NewReservoir(cfg.NumAttrs, cfg.SampleCapacity, seed); err != nil {
		return nil, err
	}
	if r.mg, err = stream.NewMisraGries(cfg.HeavyK); err != nil {
		return nil, err
	}
	if r.win, err = stream.NewWindowedReservoir(cfg.NumAttrs, w.Rows, w.Buckets, w.SampleCapacity, seed, cfg.Params); err != nil {
		return nil, err
	}
	if r.dmg, err = stream.NewDecayedMisraGries(cfg.NumAttrs, w.DecayK, w.DecayLambda, itemsketch.Params{}); err != nil {
		return nil, err
	}
	return r, nil
}

// apply is one shard's share of an ingest — the module calls a shard
// worker makes — with a span around each call.
func (r *shardReplica) apply(rec *recorder, parent string, req int, rows [][]int) {
	rec.time("stream.reservoir_add", parent, req, func() {
		for _, row := range rows {
			r.res.AddAttrs(row...)
		}
	})
	rec.time("stream.misragries_add", parent, req, func() {
		for _, row := range rows {
			for _, a := range row {
				r.mg.Add(a)
			}
		}
	})
	rec.time("stream.window_add", parent, req, func() {
		for _, row := range rows {
			if r.win.AddAttrs(row...) {
				r.dmg.Tick()
			}
			for _, a := range row {
				r.dmg.Add(a)
			}
		}
	})
	var frozen *stream.Reservoir
	rec.time("stream.reservoir_clone", parent, req, func() { frozen = r.res.Clone() })
	rec.time("stream.misragries_clone", parent, req, func() { _ = r.mg.Clone() })
	rec.time("stream.window_clone", parent, req, func() { _ = r.win.Clone() })
	rec.time("stream.decayedmg_clone", parent, req, func() { _ = r.dmg.Clone() })
	var db *dataset.Database
	rec.time("stream.database_copy", parent, req, func() { db = frozen.Database() })
	rec.time("dataset.build_column_index", parent, req, func() { db.BuildColumnIndex() })
	r.db = db
}

// stageShares splits the replay spans of op among its stages: within
// each replay parent span, every instant is shared equally among the
// stage spans running then. It returns each stage's share in µs, by
// request id.
func stageShares(rec *recorder, op string) map[int]map[string]float64 {
	type ev struct {
		t     int64
		delta int
		name  string
	}
	parent := "replay." + op
	var parents []span
	children := map[int][]span{}
	for _, s := range rec.spans {
		if s.Name == parent {
			parents = append(parents, s)
		} else if s.Parent == parent {
			children[s.Req] = append(children[s.Req], s)
		}
	}
	out := map[int]map[string]float64{}
	for _, p := range parents {
		var evs []ev
		for _, c := range children[p.Req] {
			evs = append(evs, ev{max(c.Start, p.Start), 1, c.Name}, ev{min(c.End, p.End), -1, c.Name})
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
		share := map[string]float64{}
		active := map[string]int{}
		total := 0
		for i, e := range evs {
			if i > 0 && total > 0 {
				dt := float64(e.t-evs[i-1].t) / 1e3
				for n, k := range active {
					share[n] += dt * float64(k) / float64(total)
				}
			}
			active[e.name] += e.delta
			total += e.delta
		}
		out[p.Req] = share
	}
	return out
}

// ledger splits op's traced client latency into its parts (see the top
// of this file), puts them, and returns an error if one of them is
// negative beyond ledgerTol of e2e. svcSpan names the direct Service
// call paired with the request.
func ledger(rec *recorder, op, svcSpan string, put func(string, float64, string)) error {
	e2e := rec.byReq("e2e."+op, "socket")
	handler := rec.byReq("service.http."+op, "e2e."+op)
	svc := rec.byReq(svcSpan, "inproc")
	replay := rec.byReq("replay."+op, "replay")
	shares := stageShares(rec, op)
	timed := []map[int]float64{e2e, handler, svc, replay}
	limits := make([]float64, len(timed))
	for k, m := range timed {
		limits[k] = quantile(values(m), trimQ)
	}
	sum := map[string]float64{}
	kept := 0
iterations:
	for i := range e2e {
		for k, m := range timed {
			if v, ok := m[i]; !ok || v > limits[k] {
				continue iterations
			}
		}
		kept++
		var stages float64
		for st, v := range shares[i] {
			sum[st] += v
			stages += v
		}
		sum["e2e"] += e2e[i]
		sum["net"] += e2e[i] - handler[i]
		sum["service.http residual"] += handler[i] - svc[i]
		sum["service residual"] += svc[i] - stages
	}
	if kept == 0 {
		return fmt.Errorf("ledger for %s: no traced iteration", op)
	}
	parts := map[string]float64{}
	for n, v := range sum {
		parts[n] = v / float64(kept)
	}
	total := parts["e2e"]
	delete(parts, "e2e")
	var stages float64
	var bad []string
	for n, v := range parts {
		switch n {
		case "net":
			put("net."+op+"_us", v, "us")
		case "service.http residual":
			put("service.http."+op+"_residual_us", v, "us")
		case "service residual":
			put("service."+op+"_residual_us", v, "us")
		default:
			put("ledger."+op+"."+n+"_us", v, "us")
			stages += v
		}
		if v < -ledgerTol*total {
			bad = append(bad, fmt.Sprintf("%s %.1f µs", n, v))
		}
	}
	put("e2e."+op+"_us", total, "us")
	fmt.Printf("ledger %-13s e2e %9.1f = net %8.1f + http residual %8.1f + stages %8.1f + service residual %8.1f µs (%d of %d traced iterations)\n",
		op, total, parts["net"], parts["service.http residual"], stages, parts["service residual"], kept, len(e2e))
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("ledger for %s (e2e %.1f µs) has negative parts: %s", op, total, strings.Join(bad, ", "))
	}
	return nil
}

// tracedHandler wraps h: a request carrying X-Bench-Req gets a span
// service.http.<op> around h.ServeHTTP, under its client span e2e.<op>
// with the same request id.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		op := strings.TrimPrefix(r.URL.Path, "/v1/")
		rec.time("service.http."+op, "e2e."+op, req, func() { h.ServeHTTP(w, r) })
	})
}

// inProcess runs the ledger on an in-process service and shard replicas
// fed the same inputs, and times the module calls.
func inProcess(b *bench, rec *recorder, put func(string, float64, string)) error {
	ctx := context.Background()
	dir := filepath.Join(b.workdir, "inproc")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svc, err := service.New(serviceConfig(dir))
	if err != nil {
		return err
	}
	defer svc.Close()
	reps := make([]*shardReplica, 8)
	for i := range reps {
		if reps[i], err = newReplica(i); err != nil {
			return err
		}
	}
	rows := make([][][]int, poolSize)
	for bi := range rows {
		rows[bi] = make([][]int, batchRows)
		for j, m := range b.in.rows[bi] {
			rows[bi][j] = attrsOf(m)
		}
	}
	share := func(batch [][]int) [][][]int {
		out := make([][][]int, len(reps))
		for j, row := range batch {
			out[j%len(reps)] = append(out[j%len(reps)], row)
		}
		return out
	}
	measured := len(rec.spans)
	for bi := range rows {
		if _, err := svc.Ingest(ctx, rows[bi]); err != nil {
			return err
		}
		for i, part := range share(rows[bi]) {
			reps[i].apply(rec, "preload", bi, part)
		}
	}
	rec.spans = rec.spans[:measured] // the preload is set-up, not measured

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: tracedHandler(rec, svc.Handler())}
	go srv.Serve(ln) // returns when srv is closed
	defer srv.Close()
	cli := newClient("http://"+ln.Addr().String(), 1, &b.ops)
	defer cli.close()

	check := func(err error) { b.ops.record(err) }
	itemsets := make([][]itemsketch.Itemset, reqPool)
	for i, idx := range b.in.requests {
		for _, q := range idx {
			t, err := itemsketch.NewItemset(attrsOf(b.in.itemsets[q])...)
			if err != nil {
				return err
			}
			itemsets[i] = append(itemsets[i], t)
		}
	}
	// request sends one request over the loopback socket. A traced one
	// carries its iteration in X-Bench-Req, so tracedHandler puts the
	// handler span inside its client span.
	untraced := map[string][]float64{}
	request := func(op string, body []byte, i int) {
		var err error
		if i%2 == 0 {
			var el time.Duration
			el, _, err = cli.send("/v1/"+op, body, "")
			untraced[op] = append(untraced[op], float64(el.Nanoseconds())/1e3)
		} else {
			rec.time("e2e."+op, "socket", i, func() { _, _, err = cli.send("/v1/"+op, body, strconv.Itoa(i)) })
		}
		check(err)
	}

	for i := 0; i < ledgerOps; i++ {
		k := (int(b.ingested) + i) % poolSize
		ts := itemsets[i%reqPool]
		request("ingest", b.in.bodies[k], i)
		request("mine", mineBody, i)
		request("heavyhitters", hhBody, i)
		request("estimate", b.in.reqBody[i%reqPool], i)

		rec.time("service.ingest", "inproc", i, func() { _, err = svc.Ingest(ctx, rows[k]); check(err) })
		rec.time("service.mine_cold", "inproc", i, func() { _, _, err = svc.Mine(ctx, minSupport, mineMaxK); check(err) })
		rec.time("service.mine_hot", "inproc", i, func() { _, _, err = svc.Mine(ctx, minSupport, mineMaxK); check(err) })
		rec.time("service.heavyhitters_cold", "inproc", i, func() { _, _, _, err = svc.HeavyHitters(ctx, hhPhi); check(err) })
		rec.time("service.heavyhitters_hot", "inproc", i, func() { _, _, _, err = svc.HeavyHitters(ctx, hhPhi); check(err) })
		rec.time("service.heavyhitters_window", "inproc", i, func() { _, _, _, err = svc.HeavyHittersWindow(ctx, hhPhi); check(err) })
		rec.time("service.estimate", "inproc", i, func() { _, _, err = svc.Estimate(ctx, ts); check(err) })
		rec.time("service.estimate_window", "inproc", i, func() { _, _, err = svc.EstimateWindow(ctx, ts); check(err) })

		replayIngest(rec, reps, share(rows[k]), i)
		replayEstimate(ctx, rec, reps, ts, i)
		replayMine(ctx, rec, reps, i)
		replayHeavyHitters(rec, reps, i)
	}

	for op, svcSpan := range map[string]string{"ingest": "service.ingest", "estimate": "service.estimate",
		"mine": "service.mine_cold", "heavyhitters": "service.heavyhitters_cold"} {
		b.ops.record(ledger(rec, op, svcSpan, put))
		put("service.http."+op+"_us", rec.median("service.http."+op, "e2e."+op), "us")
		put("trace.overhead_"+op+"_us", rec.median("e2e."+op, "socket")-median(untraced[op]), "us")
	}
	for _, n := range []string{"ingest", "estimate", "estimate_window", "mine_hot", "mine_cold",
		"heavyhitters_hot", "heavyhitters_cold", "heavyhitters_window"} {
		put("service."+n+"_us", rec.median("service."+n, "inproc"), "us")
	}
	for _, n := range []string{"stream.reservoir_add", "stream.misragries_add", "stream.window_add",
		"stream.reservoir_clone", "stream.misragries_clone", "stream.window_clone", "stream.decayedmg_clone",
		"dataset.build_column_index"} {
		put(n+"_us", rec.median(n, "serial.ingest"), "us")
	}
	put("query.estimate_many_us", rec.median("query.estimate_many", "serial.estimate"), "us")
	put("stream.merge_us", rec.median("stream.merge", "replay.mine"), "us")
	put("stream.mergemg_us", rec.median("stream.mergemg", "replay.heavyhitters"), "us")
	put("mining.apriori_us", rec.median("mining.apriori", "replay.mine"), "us")

	if err := kernelAndCodec(rec, reps, put); err != nil {
		return err
	}
	return recoverInProcess(ctx, svc, dir, itemsets[0], rec, put)
}

// replayIngest applies one batch to the replicas, one goroutine per
// shard as the service's shard workers do, then once more serially so
// each call's own cost is measured without the others competing.
func replayIngest(rec *recorder, reps []*shardReplica, parts [][][]int, i int) {
	rec.time("replay.ingest", "replay", i, func() {
		var wg sync.WaitGroup
		for s, r := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.apply(rec, "replay.ingest", i, parts[s])
			}()
		}
		wg.Wait()
	})
	r, part := reps[i%len(reps)], parts[i%len(reps)]
	r.apply(rec, "serial.ingest", i, part)
}

// replayEstimate runs one request's EstimateMany on every replica's
// published sample, one goroutine per shard as Service.Estimate does.
func replayEstimate(ctx context.Context, rec *recorder, reps []*shardReplica, ts []itemsketch.Itemset, i int) {
	rec.time("replay.estimate", "replay", i, func() {
		var wg sync.WaitGroup
		for _, r := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]float64, len(ts))
				rec.time("query.estimate_many", "replay.estimate", i, func() {
					_ = query.FromDatabase(r.db).EstimateMany(ctx, ts, out) // a background ctx never cancels
				})
			}()
		}
		wg.Wait()
	})
	out := make([]float64, len(ts))
	rec.time("query.estimate_many", "serial.estimate", i, func() {
		_ = query.FromDatabase(reps[i%len(reps)].db).EstimateMany(ctx, ts, out)
	})
}

// replayMine is a cold Service.Mine: merge the shard reservoirs, index
// the merged sample, mine it.
func replayMine(ctx context.Context, rec *recorder, reps []*shardReplica, i int) {
	rec.time("replay.mine", "replay", i, func() {
		merged := reps[0].res
		for k, r := range reps[1:] {
			rec.time("stream.merge", "replay.mine", i, func() {
				merged, _ = stream.Merge(merged, r.res, uint64(i*8+k)) // replicas share d, so Merge cannot fail
			})
		}
		var db *dataset.Database
		rec.time("stream.database_copy", "replay.mine", i, func() { db = merged.Database() })
		rec.time("dataset.build_column_index", "replay.mine", i, func() { db.BuildColumnIndex() })
		rec.time("mining.apriori", "replay.mine", i, func() {
			_, _ = itemsketch.AprioriContext(ctx, itemsketch.QueryDatabase(db), minSupport, mineMaxK)
		})
	})
}

// replayHeavyHitters is a cold Service.HeavyHitters: merge the shard
// Misra–Gries summaries and threshold the result.
func replayHeavyHitters(rec *recorder, reps []*shardReplica, i int) {
	rec.time("replay.heavyhitters", "replay", i, func() {
		merged := reps[0].mg
		for _, r := range reps[1:] {
			rec.time("stream.mergemg", "replay.heavyhitters", i, func() {
				merged, _ = stream.MergeMG(merged, r.mg) // replicas share k, so MergeMG cannot fail
			})
		}
		rec.time("stream.misragries_heavyhitters", "replay.heavyhitters", i, func() { _ = merged.HeavyHitters(hhPhi) })
	})
}

// kernelAndCodec times the bitvec AND-count kernel on two 64-word
// columns (one 4096-row sample column each) and decoding one shard's
// sample envelope — the part of a checkpoint recovery spends most in.
// kernelSink keeps the kernel loop's result live.
var kernelSink int

func kernelAndCodec(rec *recorder, reps []*shardReplica, put func(string, float64, string)) error {
	a, c := make([]uint64, 64), make([]uint64, 64)
	for i := range a {
		a[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
		c[i] = 0xbf58476d1ce4e5b9 * uint64(i+3)
	}
	us := rec.time("bitvec.and_count_words", "kernel", 0, func() {
		for i := 0; i < kernelOps; i++ {
			kernelSink += bitvec.AndCountWords(a, c)
		}
	})
	put("bitvec.and_count_words_ns", us*1e3/kernelOps, "ns")

	sk, err := core.SubsampleFromSample(reps[0].res.Database(), serviceConfig("").Params)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := itemsketch.MarshalTo(&buf, sk); err != nil {
		return err
	}
	var xs []float64
	for i := 0; i < 50; i++ {
		var derr error
		xs = append(xs, rec.time("itemsketch.unmarshal_shard", "codec", i, func() {
			_, derr = itemsketch.UnmarshalFrom(bytes.NewReader(buf.Bytes()))
		}))
		if derr != nil {
			return derr
		}
	}
	put("itemsketch.unmarshal_shard_us", median(xs), "us")
	return nil
}

// recoverInProcess checkpoints svc, then times New on its checkpoint
// directory plus the first Estimate, recoverOps times. svc takes no
// writes meanwhile, so each recovered service's closing checkpoint
// rewrites the state it read.
func recoverInProcess(ctx context.Context, svc *service.Service, dir string, ts []itemsketch.Itemset,
	rec *recorder, put func(string, float64, string)) error {
	if err := svc.Checkpoint(); err != nil {
		return err
	}
	var xs []float64
	for i := 0; i < recoverOps; i++ {
		var (
			s    *service.Service
			p    service.Partial
			rerr error
		)
		xs = append(xs, rec.time("service.recover", "recover", i, func() {
			if s, rerr = service.New(serviceConfig(dir)); rerr == nil {
				_, p, rerr = s.Estimate(ctx, ts)
			}
		})/1e3)
		if rerr == nil && p.Degraded() {
			rerr = fmt.Errorf("in-process recovery answered %s", p)
		}
		if s != nil {
			_ = s.Close() // its checkpoint errors, if any, do not bear on the timing
		}
		if rerr != nil {
			return fmt.Errorf("in-process recovery: %w", rerr)
		}
	}
	put("service.recover_ms", median(xs), "ms")
	return nil
}

// tracePath is where a traced run writes its spans: beside the run's
// own directory, which is removed when the run ends.
func (b *bench) tracePath(name string) string {
	return filepath.Join(filepath.Dir(b.workdir), fmt.Sprintf("trace-%s-%d.json", name, b.in.seed))
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
