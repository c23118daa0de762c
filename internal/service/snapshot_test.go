package service

import (
	"context"
	"slices"
	"sync"
	"testing"

	itemsketch "repro"
)

// snapshotState is everything a query can read off one shard snapshot.
type snapshotState struct {
	rows    [][]uint64
	seen    int64
	ests    []float64
	resEsts []float64
	winEsts []float64
}

func captureSnapshot(t *testing.T, snap *snapshot, ts []itemsketch.Itemset) snapshotState {
	t.Helper()
	st := snapshotState{seen: snap.seen}
	for i := 0; i < snap.db.NumRows(); i++ {
		st.rows = append(st.rows, slices.Clone(snap.db.RowWords(i)))
	}
	st.ests = make([]float64, len(ts))
	if err := snap.q.EstimateMany(context.Background(), ts, st.ests); err != nil {
		t.Error(err) // Error, not Fatal: the reader goroutine calls this too
	}
	for _, it := range ts {
		st.resEsts = append(st.resEsts, snap.res.Estimate(it))
		st.winEsts = append(st.winEsts, snap.win.Estimate(it))
	}
	return st
}

func (a snapshotState) equal(b snapshotState) bool {
	if a.seen != b.seen || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		if !slices.Equal(a.rows[i], b.rows[i]) {
			return false
		}
	}
	return slices.Equal(a.ests, b.ests) && slices.Equal(a.resEsts, b.resEsts) &&
		slices.Equal(a.winEsts, b.winEsts)
}

// TestSnapshotIsolatedFromLaterIngest captures a shard snapshot, reads
// it concurrently while more batches are ingested, and asserts that its
// rows, Seen and estimates never change. The snapshot's reservoir and
// query database must be one sample (one copy per publish), and that
// sample must not be the live reservoir's arena. It also pins the
// read-your-writes rule: after Ingest returns, the published snapshots
// count every row it accepted.
func TestSnapshotIsolatedFromLaterIngest(t *testing.T) {
	const d = 70 // a two-word row stride
	cfg := testConfig(d)
	cfg.Window = &WindowConfig{Rows: 800, Buckets: 4, SampleCapacity: 64}
	s := mustNew(t, cfg)
	ctx := context.Background()
	if _, err := s.Ingest(ctx, genRows(4150, d, 3)); err != nil { // leaves every open window bucket part-filled
		t.Fatal(err)
	}
	ts := []itemsketch.Itemset{
		itemsketch.MustItemset(d - 1),
		itemsketch.MustItemset(3, 64),
		itemsketch.MustItemset(40, 65, 69),
	}
	sh := s.shards[0]
	snap := sh.snapshot()

	if snap.db != snap.res.Sample() {
		t.Fatal("snapshot query database is a second copy of the frozen reservoir's sample")
	}
	sh.mu.Lock()
	live := sh.res.Sample()
	if &live.RowWords(0)[0] == &snap.db.RowWords(0)[0] {
		sh.mu.Unlock()
		t.Fatal("snapshot sample aliases the live reservoir's arena")
	}
	sh.mu.Unlock()
	if !snap.db.HasColumnIndex() {
		t.Fatal("published snapshot has no column index")
	}
	want := captureSnapshot(t, snap, ts)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	changed := make(chan struct{}, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !captureSnapshot(t, snap, ts).equal(want) {
				changed <- struct{}{}
				return
			}
		}
	}()
	rows := genRows(6000, d, 4)
	var ingestErr error
	for lo := 0; lo < len(rows) && ingestErr == nil; lo += 256 {
		_, ingestErr = s.Ingest(ctx, rows[lo:min(lo+256, len(rows))])
	}
	close(stop)
	wg.Wait()
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	select {
	case <-changed:
		t.Fatal("snapshot changed while later batches were ingested")
	default:
	}
	if !captureSnapshot(t, snap, ts).equal(want) {
		t.Fatal("snapshot changed after later batches were ingested")
	}

	// Read-your-writes: once Ingest has returned, the published
	// snapshots count every row it accepted.
	var total int64
	for _, other := range s.shards {
		total += other.Seen()
	}
	if want := int64(4150 + len(rows)); total != want {
		t.Fatalf("snapshots count %d rows after Ingest returned, want %d", total, want)
	}
	// The later batches did reach the shard: a fresh snapshot differs.
	now := sh.snapshot()
	if now.seen <= snap.seen {
		t.Fatalf("shard seen %d after more ingest, snapshot had %d", now.seen, snap.seen)
	}
	if captureSnapshot(t, now, ts).equal(want) {
		t.Fatal("fresh snapshot equals the old one; the ingest never replaced a sample row")
	}
	// The old snapshot's index still describes its rows.
	for _, it := range ts {
		if got, scan := snap.db.Count(it), snap.db.ScanCount(it, 1); got != scan {
			t.Fatalf("indexed Count(%v) = %d, row scan %d", it, got, scan)
		}
	}
}
