package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	itemsketch "repro"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Shard is one independent ingest/serve unit: a worker goroutine
// applies row batches to a streaming reservoir (and a Misra–Gries
// summary for the heavy-hitter path), publishing an immutable snapshot
// after every batch. Queries only ever read snapshots, so the ingest
// hot path and the query fan-out never share mutable state — the
// property that lets the chaos suite run estimate/mine load against
// live ingest under -race.
type Shard struct {
	id  int
	svc *Service
	ch  chan ingestReq

	mu        sync.Mutex // guards res, mg, cs, win, dmg, sinceCkpt, jrng during ingest/checkpoint
	res       *stream.Reservoir
	mg        *stream.MisraGries
	cs        *countsketch.Sketch       // nil unless Config.CountSketch is set
	win       *stream.WindowedReservoir // nil unless Config.Window is set
	dmg       *stream.DecayedMisraGries // nil unless Config.Window enables DecayK
	sinceCkpt int
	jrng      *rng.RNG // backoff jitter + recovery seeds
	winSeed   uint64   // window reservoir seed, kept for bootstrap rebuilds

	snap        atomic.Pointer[snapshot]
	state       atomic.Int32
	fails       atomic.Int32 // consecutive failures
	checkpoints atomic.Int64
	lastErr     atomic.Pointer[string]
}

// ingestReq is one routed batch with its completion channel.
type ingestReq struct {
	ctx  context.Context
	rows [][]int
	done chan error
}

// snapshot is the immutable query view of a shard: a frozen reservoir
// clone (for read-side merging) and its sample database, column-indexed
// behind a concurrency-safe Querier, the rows-seen weight, and the
// frozen heavy-hitter and window summaries. res and db share one sample
// arena: db is res's own sample, never a second copy.
type snapshot struct {
	res  *stream.Reservoir
	db   *dataset.Database // == res.Sample()
	q    query.Querier
	seen int64
	mg   *stream.MisraGries
	cs   *countsketch.Sketch
	win  *stream.WindowedReservoir
	dmg  *stream.DecayedMisraGries
}

func newShard(svc *Service, id int, reservoirSeed, jitterSeed, windowSeed uint64) (*Shard, error) {
	res, err := stream.NewReservoir(svc.cfg.NumAttrs, svc.cfg.SampleCapacity, reservoirSeed)
	if err != nil {
		return nil, err
	}
	sh := &Shard{
		id:      id,
		svc:     svc,
		ch:      make(chan ingestReq, 16),
		res:     res,
		jrng:    rng.New(jitterSeed),
		winSeed: windowSeed,
	}
	if svc.cfg.HeavyK > 0 {
		if sh.mg, err = stream.NewMisraGries(svc.cfg.HeavyK); err != nil {
			return nil, err
		}
	}
	if svc.csCfg != nil {
		if sh.cs, err = countsketch.New(*svc.csCfg); err != nil {
			return nil, err
		}
	}
	if wc := svc.cfg.Window; wc != nil {
		sh.win, err = stream.NewWindowedReservoir(svc.cfg.NumAttrs, wc.Rows, wc.Buckets,
			wc.SampleCapacity, windowSeed, svc.cfg.Params)
		if err != nil {
			return nil, err
		}
		if wc.DecayK >= 2 {
			sh.dmg, err = stream.NewDecayedMisraGries(svc.cfg.NumAttrs, wc.DecayK, wc.DecayLambda, itemsketch.Params{})
			if err != nil {
				return nil, err
			}
		}
	}
	sh.publishSnapshot()
	return sh, nil
}

// run is the shard worker: it serializes ingest application for this
// shard until the service closes its channel.
func (sh *Shard) run() {
	defer sh.svc.wg.Done()
	for req := range sh.ch {
		req.done <- sh.ingest(req.ctx, req.rows)
	}
}

// submit hands a batch to the shard worker and waits for the outcome.
func (sh *Shard) submit(ctx context.Context, rows [][]int) error {
	if sh.State() == Dead {
		return fmt.Errorf("%w: shard %d", ErrShardDead, sh.id)
	}
	req := ingestReq{ctx: ctx, rows: rows, done: make(chan error, 1)}
	// The send runs under the service's close lock: Close takes the
	// write side before closing the worker channels, so a submit racing
	// shutdown gets ErrClosed instead of a send-on-closed-channel panic.
	sh.svc.closeMu.RLock()
	if sh.svc.closed.Load() {
		sh.svc.closeMu.RUnlock()
		return fmt.Errorf("%w: shard %d", ErrClosed, sh.id)
	}
	select {
	case sh.ch <- req:
		sh.svc.closeMu.RUnlock()
	case <-ctx.Done():
		sh.svc.closeMu.RUnlock()
		return ctx.Err()
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		// The worker may have completed the application in the same
		// instant the deadline fired; prefer the real outcome so a batch
		// that was applied is never reported failed (and never re-routed
		// into a duplicate application).
		select {
		case err := <-req.done:
			return err
		default:
			return ctx.Err()
		}
	}
}

// ingest applies one batch under the retry policy: the fault hook (the
// fallible storage/transport stand-in) is consulted per attempt, and
// exhausted retries degrade the shard. On success the snapshot is
// republished and the auto-checkpoint counter advances.
func (sh *Shard) ingest(ctx context.Context, rows [][]int) error {
	if sh.State() == Dead {
		return fmt.Errorf("%w: shard %d", ErrShardDead, sh.id)
	}
	err := sh.withRetry(ctx, func(attempt int) error {
		if hook := sh.svc.cfg.IngestFault; hook != nil {
			if herr := hook(sh.id, attempt); herr != nil {
				return herr
			}
		}
		return nil
	})
	if err != nil {
		// A cancelled or timed-out request is the caller's budget, not
		// shard trouble: counting it toward DeadAfter would let a burst
		// of client timeouts kill a healthy shard (mirrors Estimate's
		// ctx guard).
		if ctx.Err() == nil {
			sh.recordFailure(err)
		}
		return err
	}
	sh.mu.Lock()
	for _, row := range rows {
		sh.res.AddAttrs(row...)
		if sh.mg != nil {
			for _, a := range row {
				sh.mg.Add(a)
			}
		}
		if sh.cs != nil {
			for _, a := range row {
				sh.cs.Add(a)
			}
		}
		if sh.win != nil {
			// A rotation means the window advanced one bucket: the decayed
			// summary ticks on the same boundary, then sees the row that
			// opened the new epoch.
			if rotated := sh.win.AddAttrs(row...); rotated && sh.dmg != nil {
				sh.dmg.Tick()
			}
			if sh.dmg != nil {
				for _, a := range row {
					sh.dmg.Add(a)
				}
			}
		}
	}
	sh.sinceCkpt += len(rows)
	due := sh.svc.cfg.CheckpointEvery > 0 && sh.sinceCkpt >= sh.svc.cfg.CheckpointEvery &&
		sh.svc.cfg.CheckpointDir != ""
	sh.publishSnapshotLocked()
	sh.mu.Unlock()
	sh.recordSuccess()
	if due {
		// Auto-checkpoint failures degrade the shard (recordFailure
		// inside Checkpoint) but never fail the ingest that triggered
		// them: the rows are in memory, durability is behind by one
		// interval, and the next checkpoint retries.
		sh.Checkpoint()
	}
	return nil
}

// publishSnapshot / publishSnapshotLocked freeze the current reservoir
// and heavy-hitter state into a new immutable snapshot. A batch is
// visible to queries once its Ingest returns, since the worker publishes
// before it reports the batch done.
//
// What one publish copies and what it shares:
//   - the reservoir sample is copied once (Reservoir.Clone), and that
//     copy is both the snapshot's frozen reservoir and its query
//     database; the column index is built on it here, before the
//     snapshot is stored, so nothing writes it after publication.
//     stream.Merge, rehome and /v1/replicate only read it;
//   - the Misra–Gries summary, the count sketch and the decayed summary
//     are cloned whole;
//   - the windowed reservoir's Clone copies only its open bucket and
//     shares the sealed ones, which no writer touches again.
func (sh *Shard) publishSnapshot() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.publishSnapshotLocked()
}

func (sh *Shard) publishSnapshotLocked() {
	frozen := sh.res.Clone()
	db := frozen.Sample()
	db.BuildColumnIndex()
	var mg *stream.MisraGries
	if sh.mg != nil {
		mg = sh.mg.Clone()
	}
	var cs *countsketch.Sketch
	if sh.cs != nil {
		cs = sh.cs.Clone()
	}
	var win *stream.WindowedReservoir
	if sh.win != nil {
		win = sh.win.Clone()
	}
	var dmg *stream.DecayedMisraGries
	if sh.dmg != nil {
		dmg = sh.dmg.Clone()
	}
	sh.snap.Store(&snapshot{
		res:  frozen,
		db:   db,
		q:    query.FromDatabase(db),
		seen: frozen.Seen(),
		mg:   mg,
		cs:   cs,
		win:  win,
		dmg:  dmg,
	})
}

// snapshot returns the current immutable query view (never nil).
func (sh *Shard) snapshot() *snapshot { return sh.snap.Load() }

// State returns the shard's health state.
func (sh *Shard) State() Health { return Health(sh.state.Load()) }

// setState swaps the health state; any transition across the Dead
// boundary re-homes or restores the shard's ingest slot.
func (sh *Shard) setState(h Health) {
	old := Health(sh.state.Swap(int32(h)))
	if (old == Dead) != (h == Dead) {
		sh.svc.recomputeRouting()
	}
}

// Seen returns the rows this shard has observed.
func (sh *Shard) Seen() int64 { return sh.snapshot().seen }

// recordFailure advances the consecutive-failure counter and the
// health state machine: DegradeAfter failures mark the shard Degraded,
// DeadAfter mark it Dead. A dead shard stays dead: no failure or
// success path resurrects it. The only sanctioned way back is an
// explicit bootstrap from a peer's replication envelope
// (Service.BootstrapShard → revive), or a full restart with
// checkpoint replay.
func (sh *Shard) recordFailure(err error) {
	msg := err.Error()
	sh.lastErr.Store(&msg)
	n := int(sh.fails.Add(1))
	switch {
	case n >= sh.svc.cfg.DeadAfter:
		sh.setState(Dead)
	case n >= sh.svc.cfg.DegradeAfter:
		// Never promote Dead back to Degraded on a late failure.
		sh.state.CompareAndSwap(int32(Healthy), int32(Degraded))
	}
}

// recordSuccess resets the failure streak and recovers Degraded (but
// never Dead) back to Healthy.
func (sh *Shard) recordSuccess() {
	sh.fails.Store(0)
	sh.state.CompareAndSwap(int32(Degraded), int32(Healthy))
}

func (sh *Shard) lastError() string {
	if p := sh.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// withRetry runs f under the bounded exponential-backoff policy with
// full seeded jitter: attempt a sleeps U[0, min(RetryMax,
// RetryBase·2^a)]. The context is respected between attempts, so a
// cancelled request never burns the whole budget.
func (sh *Shard) withRetry(ctx context.Context, f func(attempt int) error) error {
	cfg := sh.svc.cfg
	var last error
	for attempt := 0; attempt < cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if last = f(attempt); last == nil {
			return nil
		}
		if attempt == cfg.MaxRetries-1 {
			break
		}
		if err := sh.backoff(ctx, attempt); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, cfg.MaxRetries, last)
}

// revive rebuilds a dead shard from a replication sample and returns
// it to service — the shard half of Service.BootstrapShard. The
// reservoir is restored exactly like checkpoint recovery; the side
// summaries (MG, count sketch, window, decayed MG) restart empty with
// their original configuration and seeds, since the envelope carries
// only the row sample. The worker goroutine never stopped (a dead
// shard merely refuses submissions), so flipping the state back to
// Healthy is all the restart there is.
func (sh *Shard) revive(sample *dataset.Database, seen int64) error {
	cfg := sh.svc.cfg
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Recheck under the ingest lock: two concurrent bootstraps must not
	// both restore, and a revive racing ingest application cannot
	// interleave with it.
	if sh.State() != Dead {
		return fmt.Errorf("%w: shard %d is %s; only a dead shard can be bootstrapped", itemsketch.ErrInvalidParams, sh.id, sh.State())
	}
	res, err := stream.RestoreReservoir(sample, cfg.SampleCapacity, seen, sh.jrng.Uint64())
	if err != nil {
		return err
	}
	var mg *stream.MisraGries
	if cfg.HeavyK > 0 {
		if mg, err = stream.NewMisraGries(cfg.HeavyK); err != nil {
			return err
		}
	}
	var cs *countsketch.Sketch
	if sh.svc.csCfg != nil {
		if cs, err = countsketch.New(*sh.svc.csCfg); err != nil {
			return err
		}
	}
	var win *stream.WindowedReservoir
	var dmg *stream.DecayedMisraGries
	if wc := cfg.Window; wc != nil {
		win, err = stream.NewWindowedReservoir(cfg.NumAttrs, wc.Rows, wc.Buckets,
			wc.SampleCapacity, sh.winSeed, cfg.Params)
		if err != nil {
			return err
		}
		if wc.DecayK >= 2 {
			dmg, err = stream.NewDecayedMisraGries(cfg.NumAttrs, wc.DecayK, wc.DecayLambda, itemsketch.Params{})
			if err != nil {
				return err
			}
		}
	}
	sh.res, sh.mg, sh.cs, sh.win, sh.dmg = res, mg, cs, win, dmg
	sh.sinceCkpt = 0
	sh.publishSnapshotLocked()
	sh.fails.Store(0)
	sh.lastErr.Store(nil)
	sh.setState(Healthy) // re-homes the slot back via recomputeRouting
	return nil
}

// backoff sleeps the jittered delay for one failed attempt.
func (sh *Shard) backoff(ctx context.Context, attempt int) error {
	cfg := sh.svc.cfg
	ceil := cfg.RetryBase << uint(attempt)
	if ceil > cfg.RetryMax || ceil <= 0 {
		ceil = cfg.RetryMax
	}
	sh.mu.Lock()
	d := time.Duration(sh.jrng.Float64() * float64(ceil))
	sh.mu.Unlock()
	if cfg.Sleep != nil {
		cfg.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
