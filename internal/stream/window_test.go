package stream

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
)

func testWindowParams() core.Params {
	return core.Params{K: 1, Eps: 0.1, Delta: 0.1, Mode: core.ForEach, Task: core.Estimator}
}

func TestWindowedValidation(t *testing.T) {
	p := testWindowParams()
	cases := []struct {
		name                             string
		d, windowRows, buckets, capacity int
	}{
		{"zero d", 0, 100, 4, 10},
		{"zero buckets", 4, 100, 0, 10},
		{"indivisible window", 4, 100, 3, 10},
		{"window below buckets", 4, 2, 4, 10},
		{"zero capacity", 4, 100, 4, 0},
	}
	for _, c := range cases {
		if _, err := NewWindowedReservoir(c.d, c.windowRows, c.buckets, c.capacity, 1, p); !errors.Is(err, core.ErrInvalidParams) {
			t.Errorf("%s: err = %v, want ErrInvalidParams", c.name, err)
		}
	}
	if _, err := NewWindowedReservoir(4, 100, 4, 10, 1, core.Params{K: 9}); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := NewWindowedReservoir(4, 100, 4, 10, 1, core.Params{K: 9, Eps: 0.1, Delta: 0.1}); !errors.Is(err, core.ErrInvalidParams) {
		t.Error("k > d should fail")
	}
}

// TestWindowedRotationAndEviction pins the chain mechanics: rotations
// happen exactly every bucketRows rows, the chain never exceeds B
// buckets, and WindowSeen stays within (W·(B−1)/B, W].
func TestWindowedRotationAndEviction(t *testing.T) {
	w, err := NewWindowedReservoir(4, 40, 4, 8, 7, testWindowParams())
	if err != nil {
		t.Fatal(err)
	}
	if w.BucketRows() != 10 || w.WindowRows() != 40 {
		t.Fatalf("bucketRows=%d windowRows=%d", w.BucketRows(), w.WindowRows())
	}
	rotations := 0
	for i := 0; i < 200; i++ {
		if w.AddAttrs(i % 4) {
			rotations++
		}
		if len(w.ring) > w.buckets {
			t.Fatalf("row %d: chain grew to %d buckets", i, len(w.ring))
		}
		if seen := w.WindowSeen(); seen > 40 {
			t.Fatalf("row %d: window covers %d rows, max 40", i, seen)
		}
	}
	// 200 rows at 10 rows per sub-window: 19 rotations (the first bucket
	// opens without one).
	if rotations != 19 {
		t.Fatalf("rotations = %d, want 19", rotations)
	}
	if w.Epoch() != 19 {
		t.Fatalf("epoch = %d, want 19", w.Epoch())
	}
	// A full chain mid-sub-window covers 3 full buckets + the partial
	// newest: at least 31 of the last 40 rows.
	if seen := w.WindowSeen(); seen < 31 || seen > 40 {
		t.Fatalf("window seen = %d, want in [31, 40]", seen)
	}
}

// TestWindowedTracksDistributionShift streams two phases with disjoint
// attribute supports; after the second phase has filled the window, the
// estimate for the phase-1 attribute must drop to zero because every
// bucket holding phase-1 rows has been evicted.
func TestWindowedTracksDistributionShift(t *testing.T) {
	w, err := NewWindowedReservoir(2, 100, 4, 25, 3, testWindowParams())
	if err != nil {
		t.Fatal(err)
	}
	t0 := dataset.MustItemset(0)
	t1 := dataset.MustItemset(1)
	for i := 0; i < 500; i++ {
		w.AddAttrs(0)
	}
	if got := w.Estimate(t0); got != 1 {
		t.Fatalf("phase 1: Estimate(0) = %g, want 1", got)
	}
	for i := 0; i < 500; i++ {
		w.AddAttrs(1)
	}
	if got := w.Estimate(t0); got != 0 {
		t.Fatalf("after shift: Estimate(0) = %g, want 0 (old rows evicted)", got)
	}
	if got := w.Estimate(t1); got != 1 {
		t.Fatalf("after shift: Estimate(1) = %g, want 1", got)
	}
	if !w.Frequent(t1) || w.Frequent(t0) {
		t.Fatalf("Frequent: got (0:%v, 1:%v), want (false, true)", w.Frequent(t0), w.Frequent(t1))
	}
}

// TestWindowedEstimateAccuracy checks the seen-weighted estimate against
// the true windowed frequency on a mixed stream, within sampling noise.
func TestWindowedEstimateAccuracy(t *testing.T) {
	w, err := NewWindowedReservoir(8, 1000, 4, 250, 11, testWindowParams())
	if err != nil {
		t.Fatal(err)
	}
	// Attribute 0 appears in exactly every third row.
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			w.AddAttrs(0, 1+i%7)
		} else {
			w.AddAttrs(1 + i%7)
		}
	}
	got := w.Estimate(dataset.MustItemset(0))
	if math.Abs(got-1.0/3.0) > 0.08 {
		t.Fatalf("Estimate(0) = %g, want ≈ 1/3", got)
	}
}

// TestWindowedCodecRoundTrip pins the codec invariants beyond the
// registry sweep: SizeBits is exact, decode is byte-identical on
// re-encode, and the decoded window keeps answering and rotating.
func TestWindowedCodecRoundTrip(t *testing.T) {
	w, err := NewWindowedReservoir(6, 60, 3, 10, 9, testWindowParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 137; i++ {
		w.AddAttrs(i%6, (i+2)%6)
	}
	var bw bitvec.Writer
	w.MarshalBits(&bw)
	if int64(bw.BitLen()) != w.SizeBits() {
		t.Fatalf("SizeBits = %d, encoder wrote %d", w.SizeBits(), bw.BitLen())
	}
	back, err := core.UnmarshalSketch(bitvec.NewReader(bw.Bytes(), bw.BitLen()))
	if err != nil {
		t.Fatal(err)
	}
	wb, ok := back.(*WindowedReservoir)
	if !ok {
		t.Fatalf("decoded %T", back)
	}
	if wb.Epoch() != w.Epoch() || wb.WindowSeen() != w.WindowSeen() || len(wb.ring) != len(w.ring) {
		t.Fatalf("state changed: epoch %d/%d seen %d/%d live %d/%d",
			wb.Epoch(), w.Epoch(), wb.WindowSeen(), w.WindowSeen(), len(wb.ring), len(w.ring))
	}
	var bw2 bitvec.Writer
	wb.MarshalBits(&bw2)
	if string(bw.Bytes()) != string(bw2.Bytes()) || bw.BitLen() != bw2.BitLen() {
		t.Fatal("re-marshal is not byte-identical")
	}
	// The restored window keeps working: same estimates now, still
	// rotates on schedule.
	if wb.Estimate(dataset.MustItemset(0)) != w.Estimate(dataset.MustItemset(0)) {
		t.Fatal("decoded estimate differs")
	}
	rot := false
	for i := 0; i < 60; i++ {
		rot = wb.AddAttrs(i%6) || rot
	}
	if !rot {
		t.Fatal("restored window never rotated over a full sub-window")
	}
}

// TestWindowedMergeLaw merges two windows fed disjoint shards of the
// same stream and checks the merge estimates the union window.
func TestWindowedMergeLaw(t *testing.T) {
	p := testWindowParams()
	a, _ := NewWindowedReservoir(4, 100, 4, 25, 1, p)
	b, _ := NewWindowedReservoir(4, 100, 4, 25, 2, p)
	// Shard a sees attribute 0 always; shard b sees it never.
	for i := 0; i < 500; i++ {
		a.AddAttrs(0, i%4)
		b.AddAttrs(1 + i%3)
	}
	m, err := MergeWindowed(a, b, 99)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != a.Epoch() {
		t.Fatalf("merged epoch %d, inputs at %d", m.Epoch(), a.Epoch())
	}
	got := m.Estimate(dataset.MustItemset(0))
	if math.Abs(got-0.5) > 0.1 {
		t.Fatalf("merged Estimate(0) = %g, want ≈ 1/2", got)
	}
	// Inputs unchanged.
	if a.Estimate(dataset.MustItemset(0)) != 1 || b.Estimate(dataset.MustItemset(0)) != 0 {
		t.Fatal("merge mutated an input")
	}
}

// TestWindowedMergeEpochDrift merges windows whose epochs drifted apart
// by one rotation — the sharded-service reality — and checks the result
// is anchored at the later epoch with a contiguous chain.
func TestWindowedMergeEpochDrift(t *testing.T) {
	p := testWindowParams()
	a, _ := NewWindowedReservoir(4, 40, 4, 10, 1, p)
	b, _ := NewWindowedReservoir(4, 40, 4, 10, 2, p)
	for i := 0; i < 100; i++ {
		a.AddAttrs(i % 4)
	}
	for i := 0; i < 85; i++ {
		b.AddAttrs(i % 4)
	}
	if a.Epoch() == b.Epoch() {
		t.Fatal("fixture should drift epochs apart")
	}
	m, err := MergeWindowed(a, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != a.Epoch() {
		t.Fatalf("merged epoch %d, want later input's %d", m.Epoch(), a.Epoch())
	}
	if len(m.ring) != m.buckets {
		t.Fatalf("merged chain has %d buckets, want full %d", len(m.ring), m.buckets)
	}
	if m.WindowSeen() < a.WindowSeen() {
		t.Fatalf("merged window covers %d rows, less than input a's %d", m.WindowSeen(), a.WindowSeen())
	}
}

func TestWindowedMergeMismatch(t *testing.T) {
	p := testWindowParams()
	a, _ := NewWindowedReservoir(4, 40, 4, 10, 1, p)
	b, _ := NewWindowedReservoir(4, 40, 2, 10, 2, p)
	if _, err := MergeWindowed(a, b, 3); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("geometry mismatch: err = %v", err)
	}
	p2 := p
	p2.Eps = 0.2
	c, _ := NewWindowedReservoir(4, 40, 4, 10, 2, p2)
	if _, err := MergeWindowed(a, c, 3); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("params mismatch: err = %v", err)
	}
}

// TestWindowedRegistryMergeDeterministic checks the registry merge hook
// produces identical bytes for repeated merges of the same inputs.
func TestWindowedRegistryMergeDeterministic(t *testing.T) {
	p := testWindowParams()
	a, _ := NewWindowedReservoir(4, 40, 4, 10, 1, p)
	b, _ := NewWindowedReservoir(4, 40, 4, 10, 2, p)
	for i := 0; i < 120; i++ {
		a.AddAttrs(i % 4)
		b.AddAttrs((i + 1) % 4)
	}
	m1, err := core.MergeSketches(a, b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.MergeSketches(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var w1, w2 bitvec.Writer
	m1.MarshalBits(&w1)
	m2.MarshalBits(&w2)
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Fatal("registry merge is not deterministic")
	}
}

func TestDecayedValidation(t *testing.T) {
	if _, err := NewDecayedMisraGries(0, 8, 0.9, core.Params{}); !errors.Is(err, core.ErrInvalidParams) {
		t.Error("d = 0 should fail")
	}
	if _, err := NewDecayedMisraGries(4, 1, 0.9, core.Params{}); !errors.Is(err, core.ErrInvalidParams) {
		t.Error("k = 1 should fail")
	}
	for _, l := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewDecayedMisraGries(4, 8, l, core.Params{}); !errors.Is(err, core.ErrInvalidParams) {
			t.Errorf("lambda = %g should fail", l)
		}
	}
	if _, err := NewDecayedMisraGries(4, 8, 0.9, core.Params{K: 2, Eps: 0.1, Delta: 0.1}); !errors.Is(err, core.ErrInvalidParams) {
		t.Error("params k ≠ 1 should fail")
	}
}

// TestDecayedGuarantee streams items and checks the Misra–Gries
// invariant under decay: every item's decayed weight is underestimated
// by at most N/k, against exactly-tracked decayed truth.
func TestDecayedGuarantee(t *testing.T) {
	const d, k = 32, 8
	const lambda = 0.8
	dm, err := NewDecayedMisraGries(d, k, lambda, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, d)
	var total float64
	tickAll := func() {
		dm.Tick()
		total *= lambda
		for i := range truth {
			truth[i] *= lambda
		}
	}
	addAll := func(item int) {
		dm.Add(item)
		truth[item]++
		total++
	}
	// Skewed stream: item i%4 is frequent, the tail is spread wide.
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			addAll(i % 4)
		} else {
			addAll(4 + i%28)
		}
		if i%100 == 99 {
			tickAll()
		}
	}
	if math.Abs(dm.N()-total) > 1e-6*total {
		t.Fatalf("decayed total %g, truth %g", dm.N(), total)
	}
	slack := dm.N() / float64(k)
	for item := 0; item < d; item++ {
		c := dm.Count(item)
		if c > truth[item]+1e-9 {
			t.Fatalf("item %d: count %g overestimates truth %g", item, c, truth[item])
		}
		if c < truth[item]-slack-1e-9 {
			t.Fatalf("item %d: count %g below truth %g − N/k %g", item, c, truth[item], slack)
		}
	}
	// The frequent items must surface as heavy hitters at φ = 1/8.
	hh := dm.HeavyHitters(0.125)
	seen := map[int]bool{}
	for _, it := range hh {
		seen[it] = true
	}
	for item := 0; item < 4; item++ {
		if truth[item] >= 0.125*total && !seen[item] {
			t.Fatalf("frequent item %d missing from heavy hitters %v", item, hh)
		}
	}
}

// TestDecayedTickForgetsOldItems checks exponential forgetting: an item
// heavy long ago decays below a recently-heavy item.
func TestDecayedTickForgetsOldItems(t *testing.T) {
	dm, err := NewDecayedMisraGries(16, 8, 0.5, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		dm.Add(0)
	}
	dm.TickN(10) // weight of item 0 shrinks by 2^-10
	for i := 0; i < 10; i++ {
		dm.Add(1)
	}
	if dm.Count(1) <= dm.Count(0) {
		t.Fatalf("recent item 1 (%g) should outweigh decayed item 0 (%g)", dm.Count(1), dm.Count(0))
	}
	if dm.Epoch() != 10 {
		t.Fatalf("epoch = %d", dm.Epoch())
	}
	est0, err := dm.EstimateErr(dataset.MustItemset(0))
	if err != nil {
		t.Fatal(err)
	}
	est1, err := dm.EstimateErr(dataset.MustItemset(1))
	if err != nil {
		t.Fatal(err)
	}
	if est1 <= est0 {
		t.Fatalf("Estimate(1)=%g should exceed Estimate(0)=%g", est1, est0)
	}
}

// TestDecayedSketchFace pins the k=1 core.Sketch contract: typed errors
// for wrong itemset sizes, batch estimates matching singles, and the
// empty-summary zero estimate.
func TestDecayedSketchFace(t *testing.T) {
	dm, err := NewDecayedMisraGries(8, 4, 0.9, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.EstimateErr(dataset.MustItemset(0, 1)); !errors.Is(err, core.ErrWrongItemsetSize) {
		t.Errorf("|T|=2: err = %v", err)
	}
	if _, err := dm.FrequentErr(dataset.MustItemset(7, 3)); !errors.Is(err, core.ErrWrongItemsetSize) {
		t.Errorf("FrequentErr |T|=2: err = %v", err)
	}
	if f, err := dm.EstimateErr(dataset.MustItemset(5)); err != nil || f != 0 {
		t.Errorf("empty summary: (%g, %v)", f, err)
	}
	for i := 0; i < 50; i++ {
		dm.Add(i % 3)
	}
	ts := []dataset.Itemset{dataset.MustItemset(0), dataset.MustItemset(5)}
	out := make([]float64, 2)
	if err := dm.EstimateBatch(ts, out); err != nil {
		t.Fatal(err)
	}
	for i, q := range ts {
		if single, _ := dm.EstimateErr(q); single != out[i] {
			t.Errorf("batch[%d] = %g, single = %g", i, out[i], single)
		}
	}
	if dm.Params().K != 1 || dm.NumAttrs() != 8 || dm.Name() != DecayedKindName {
		t.Errorf("identity: %v %d %s", dm.Params(), dm.NumAttrs(), dm.Name())
	}
}

// TestDecayedCodecRoundTrip pins SizeBits exactness and byte-identical
// re-marshal on a decayed summary mid-stream.
func TestDecayedCodecRoundTrip(t *testing.T) {
	dm, err := NewDecayedMisraGries(16, 6, 0.75, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		dm.Add(i % 9)
		if i%50 == 49 {
			dm.Tick()
		}
	}
	var bw bitvec.Writer
	dm.MarshalBits(&bw)
	if int64(bw.BitLen()) != dm.SizeBits() {
		t.Fatalf("SizeBits = %d, encoder wrote %d", dm.SizeBits(), bw.BitLen())
	}
	back, err := core.UnmarshalSketch(bitvec.NewReader(bw.Bytes(), bw.BitLen()))
	if err != nil {
		t.Fatal(err)
	}
	db, ok := back.(*DecayedMisraGries)
	if !ok {
		t.Fatalf("decoded %T", back)
	}
	if db.Epoch() != dm.Epoch() || db.N() != dm.N() || db.SizeCounters() != dm.SizeCounters() {
		t.Fatal("decoded state differs")
	}
	var bw2 bitvec.Writer
	db.MarshalBits(&bw2)
	if string(bw.Bytes()) != string(bw2.Bytes()) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// TestDecayedMergeLaw merges two summaries over disjoint shards,
// including one with an epoch lag, and checks the combined invariant.
func TestDecayedMergeLaw(t *testing.T) {
	a, _ := NewDecayedMisraGries(16, 8, 0.9, core.Params{})
	b, _ := NewDecayedMisraGries(16, 8, 0.9, core.Params{})
	for i := 0; i < 400; i++ {
		a.Add(i % 5)
		b.Add(8 + i%5)
		if i%100 == 99 {
			a.Tick()
		}
		if i%100 == 99 && i < 300 {
			b.Tick() // b lags one tick behind a
		}
	}
	m, err := MergeDecayed(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != a.Epoch() {
		t.Fatalf("merged epoch %d, want %d", m.Epoch(), a.Epoch())
	}
	// b's total must have been decayed forward one extra tick before
	// summation.
	want := a.N() + b.N()*0.9
	if math.Abs(m.N()-want) > 1e-9*want {
		t.Fatalf("merged total %g, want %g", m.N(), want)
	}
	if m.SizeCounters() > m.K()-1 {
		t.Fatalf("merged summary holds %d counters, bound %d", m.SizeCounters(), m.K()-1)
	}
	// Inputs untouched.
	if b.Epoch() != a.Epoch()-1 {
		t.Fatal("merge mutated input b")
	}
	// Mismatches are typed.
	c, _ := NewDecayedMisraGries(16, 8, 0.5, core.Params{})
	if _, err := MergeDecayed(a, c); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("lambda mismatch: err = %v", err)
	}
}

// TestDecayedCorruptRejects drives the decoder's validation directly
// with impossible summaries.
func TestDecayedCorruptRejects(t *testing.T) {
	write := func(mutate func(*DecayedMisraGries)) []byte {
		dm, err := NewDecayedMisraGries(8, 4, 0.9, core.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			dm.Add(i % 3)
		}
		mutate(dm)
		var bw bitvec.Writer
		dm.MarshalBits(&bw)
		return bw.Bytes()
	}
	cases := []struct {
		name   string
		mutate func(*DecayedMisraGries)
	}{
		{"counter above universe", func(dm *DecayedMisraGries) { dm.counters[99] = 1 }},
		{"mass above total", func(dm *DecayedMisraGries) { dm.counters[1] = 1e6 }},
		{"negative counter", func(dm *DecayedMisraGries) { dm.counters[1] = -3 }},
		{"nan total", func(dm *DecayedMisraGries) { dm.n = math.NaN() }},
		{"counter overflow", func(dm *DecayedMisraGries) {
			dm.counters[4], dm.counters[5], dm.counters[6] = 1, 1, 1
		}},
	}
	for _, c := range cases {
		buf := write(c.mutate)
		if _, err := core.UnmarshalSketch(bitvec.NewReader(buf, len(buf)*8)); err == nil {
			t.Errorf("%s: decode accepted an impossible summary", c.name)
		}
	}
}

// windowBytes is the window's full wire encoding, for comparing states.
func windowBytes(w *WindowedReservoir) string {
	var bw bitvec.Writer
	w.MarshalBits(&bw)
	return string(bw.Bytes())
}

// windowEstimates answers a fixed battery of itemsets on w.
func windowEstimates(w *WindowedReservoir) []float64 {
	var out []float64
	for a := 0; a < w.NumAttrs(); a++ {
		out = append(out, w.Estimate(dataset.MustItemset(a)))
		out = append(out, w.Estimate(dataset.MustItemset(a, (a+1)%w.NumAttrs())))
	}
	return out
}

// TestWindowedCloneSharesSealedBuckets pins the sharing Clone: the
// sealed buckets are the original's own, only the open bucket is
// copied, and driving either window through more than Buckets
// rotations leaves the other's bytes and estimates unchanged.
func TestWindowedCloneSharesSealedBuckets(t *testing.T) {
	newFed := func() *WindowedReservoir {
		w, err := NewWindowedReservoir(6, 60, 4, 8, 11, testWindowParams())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 47; i++ { // 3 rotations: a full 4-bucket chain, the open bucket 2 rows in
			w.AddAttrs(i%6, (i*5+1)%6)
		}
		return w
	}
	drive := func(w *WindowedReservoir, rows int) {
		for i := 0; i < rows; i++ {
			w.AddAttrs((i*7)%6, (i+3)%6)
		}
	}
	rotations := 2*4 + 1 // more than Buckets rotations: every shared bucket leaves the driven chain

	orig := newFed()
	c := orig.Clone()
	last := len(orig.ring) - 1
	if len(c.ring) != len(orig.ring) || last < 1 {
		t.Fatalf("clone has %d buckets, original %d", len(c.ring), len(orig.ring))
	}
	for i := 0; i < last; i++ {
		if c.ring[i] != orig.ring[i] {
			t.Fatalf("sealed bucket %d was copied, want it shared", i)
		}
	}
	if c.ring[last] == orig.ring[last] {
		t.Fatal("open bucket is shared, want it copied")
	}

	wantBytes, wantEst := windowBytes(c), windowEstimates(c)
	drive(orig, rotations*orig.BucketRows())
	if windowBytes(c) != wantBytes {
		t.Fatal("driving the original changed the clone's encoding")
	}
	if got := windowEstimates(c); !slices.Equal(got, wantEst) {
		t.Fatalf("driving the original changed the clone's estimates: %v, want %v", got, wantEst)
	}

	orig = newFed()
	c = orig.Clone()
	wantBytes, wantEst = windowBytes(orig), windowEstimates(orig)
	drive(c, rotations*c.BucketRows())
	if windowBytes(orig) != wantBytes {
		t.Fatal("driving the clone changed the original's encoding")
	}
	if got := windowEstimates(orig); !slices.Equal(got, wantEst) {
		t.Fatalf("driving the clone changed the original's estimates: %v, want %v", got, wantEst)
	}

	// A clone evolves exactly like its original would have.
	twin := newFed()
	c = twin.Clone()
	drive(twin, 100)
	drive(c, 100)
	if windowBytes(c) != windowBytes(twin) {
		t.Fatal("clone and original diverged on the same rows")
	}
}

// TestWindowedCloneConcurrentReaders reads a clone from several
// goroutines while the original keeps ingesting through rotations: run
// under -race, it proves the shared sealed buckets are never written.
func TestWindowedCloneConcurrentReaders(t *testing.T) {
	w, err := NewWindowedReservoir(6, 60, 4, 8, 13, testWindowParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w.AddAttrs(i%6, (i+1)%6)
	}
	c := w.Clone()
	want, wantBytes := windowEstimates(c), windowBytes(c)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !slices.Equal(windowEstimates(c), want) || windowBytes(c) != wantBytes {
					errs <- "clone changed under concurrent ingest"
					return
				}
			}
		}()
	}
	for i := 0; i < 600; i++ {
		w.AddAttrs((i*3)%6, (i+4)%6)
		if i%20 == 0 {
			w = w.Clone() // the service's publish cadence: clones of clones
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
