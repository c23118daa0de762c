package stream

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Sliding-window variants of the streaming summaries: the "last N
// events from millions of users" shape. A WindowedReservoir chains
// per-sub-window reservoirs so the sample always covers (roughly) the
// trailing window of rows; DecayedMisraGries (decay.go) applies
// exponential count decay on the same epoch ticks. Both are full
// envelope citizens via the sketch-kind registry: kinds 7 and 8, with
// codecs, Querier adapters and merge laws.

// WindowedKindTag is the windowed-reservoir wire kind byte / payload
// type tag, registered with the core sketch-kind registry at init.
const WindowedKindTag uint8 = 7

// WindowedKindName is the windowed-reservoir registered wire name.
const WindowedKindName = "windowed-reservoir"

func init() {
	core.RegisterKind(core.KindSpec{
		Kind:    WindowedKindTag,
		Name:    WindowedKindName,
		Decode:  unmarshalWindowed,
		Matches: func(s core.Sketch) bool { return s.Name() == WindowedKindName },
		Merge:   mergeWindowedKind,
	})
}

// Wire payload of the windowed-reservoir kind (tag 7), after the
// leading KindTagBits type tag:
//
//	params      core.MarshalParams header
//	d           32 bits
//	bucketRows  32 bits (rows per sub-window)
//	buckets     16 bits (maximum chain length B)
//	capacity    32 bits (per-bucket reservoir capacity)
//	seed        64 bits
//	epoch       64 bits (index of the newest bucket = rotations so far)
//	live        16 bits (buckets currently in the chain, ≤ B)
//	live ×:     seen 64 bits, then the bucket sample
//	            (dataset.MarshalBits: d 32, n 32, n·d row bits)
//
// Like RestoreReservoir, the encoding carries no generator state: a
// decoded window draws fresh (deterministically derived) coins for the
// rows still to come, which preserves Algorithm R's per-bucket
// uniformity guarantee. Decode → re-encode is byte-identical because
// nothing but samples and counters is serialized.
const (
	windowedDimBits    = 32
	windowedBucketBits = 16
	windowedFixedBits  = windowedDimBits + // d
		windowedDimBits + // bucketRows
		windowedBucketBits + // buckets
		windowedDimBits + // capacity
		64 + 64 + // seed, epoch
		windowedBucketBits // live
	maxWindowBuckets = 1<<windowedBucketBits - 1
)

// WindowedReservoir approximates a uniform sample of the trailing
// window of W rows by chaining B reservoirs, one per W/B-row
// sub-window (the standard sub-window decomposition of sliding-window
// sampling). When the newest sub-window fills, the chain rotates: a
// fresh bucket starts and the bucket older than the window is dropped,
// so at any moment the chain covers between W·(B-1)/B and W of the
// most recent rows. Estimates are the seen-weighted average of the
// per-bucket sample frequencies — the expectation of querying a merge
// of the bucket samples.
//
// Rotation boundaries are the family's epoch ticks: the service drives
// DecayedMisraGries decay off the rotations AddAttrs reports.
type WindowedReservoir struct {
	params     core.Params
	d          int
	bucketRows int
	buckets    int
	capacity   int
	seed       uint64
	epoch      int64
	// ring holds the live buckets oldest→newest over the contiguous
	// epoch range [epoch-len(ring)+1, epoch].
	ring []*Reservoir
}

// NewWindowedReservoir creates a windowed sampler over d-attribute
// rows: a trailing window of windowRows rows split into buckets
// sub-windows, each holding a reservoir of up to capacity rows.
// windowRows must divide evenly into buckets. p is the (k, ε, δ)
// contract recorded on the sketch (its K bounds the itemsets queried).
func NewWindowedReservoir(d, windowRows, buckets, capacity int, seed uint64, p core.Params) (*WindowedReservoir, error) {
	if d < 1 {
		return nil, fmt.Errorf("%w: windowed reservoir needs d ≥ 1, got %d", core.ErrInvalidParams, d)
	}
	if buckets < 1 || buckets > maxWindowBuckets {
		return nil, fmt.Errorf("%w: windowed reservoir needs 1 ≤ buckets ≤ %d, got %d", core.ErrInvalidParams, maxWindowBuckets, buckets)
	}
	if windowRows < buckets || windowRows%buckets != 0 {
		return nil, fmt.Errorf("%w: window of %d rows does not split into %d equal sub-windows", core.ErrInvalidParams, windowRows, buckets)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("%w: windowed reservoir needs capacity ≥ 1, got %d", core.ErrInvalidParams, capacity)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.K > d {
		return nil, fmt.Errorf("%w: params k = %d exceeds d = %d", core.ErrInvalidParams, p.K, d)
	}
	w := &WindowedReservoir{
		params:     p,
		d:          d,
		bucketRows: windowRows / buckets,
		buckets:    buckets,
		capacity:   capacity,
		seed:       seed,
	}
	first, err := NewReservoir(d, capacity, w.bucketSeed(0))
	if err != nil {
		return nil, err
	}
	w.ring = []*Reservoir{first}
	return w, nil
}

// bucketSeed derives the reservoir seed for the bucket opened at a
// rotation index — a pure function of (seed, epoch), so decode needs
// no generator state to name future buckets.
func (w *WindowedReservoir) bucketSeed(epoch int64) uint64 {
	return mix64(w.seed, uint64(epoch)+1)
}

// mix64 hashes its words into one seed (splitmix64-style finalization
// over a running state). It is the deterministic seed-derivation used
// for bucket seeds, restore coins and merge coins.
func mix64(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// AddAttrs offers one row (as attribute indices) to the window. It
// reports whether the chain rotated to a new sub-window before
// accepting this row — the epoch tick a paired decayed summary should
// observe.
func (w *WindowedReservoir) AddAttrs(attrs ...int) (rotated bool) {
	newest := w.ring[len(w.ring)-1]
	if newest.Seen() >= int64(w.bucketRows) {
		w.rotate()
		rotated = true
	}
	w.ring[len(w.ring)-1].AddAttrs(attrs...)
	return rotated
}

// rotate opens the next sub-window's bucket and drops the bucket that
// just left the trailing window.
func (w *WindowedReservoir) rotate() {
	w.epoch++
	next, err := NewReservoir(w.d, w.capacity, w.bucketSeed(w.epoch))
	if err != nil {
		// Geometry was validated at construction; this cannot fail.
		panic(fmt.Sprintf("stream: windowed rotation: %v", err))
	}
	w.ring = append(w.ring, next)
	if len(w.ring) > w.buckets {
		copy(w.ring, w.ring[1:])
		w.ring[len(w.ring)-1] = nil
		w.ring = w.ring[:len(w.ring)-1]
	}
}

// WindowRows returns the configured window length W in rows.
func (w *WindowedReservoir) WindowRows() int { return w.bucketRows * w.buckets }

// Buckets returns the sub-window count B.
func (w *WindowedReservoir) Buckets() int { return w.buckets }

// BucketRows returns the rows per sub-window, W/B.
func (w *WindowedReservoir) BucketRows() int { return w.bucketRows }

// Capacity returns the per-bucket reservoir capacity.
func (w *WindowedReservoir) Capacity() int { return w.capacity }

// Seed returns the root seed bucket seeds derive from.
func (w *WindowedReservoir) Seed() uint64 { return w.seed }

// Epoch returns the rotation count — the index of the newest bucket.
func (w *WindowedReservoir) Epoch() int64 { return w.epoch }

// WindowSeen returns the number of rows currently covered by the
// window (the seen totals of the live buckets).
func (w *WindowedReservoir) WindowSeen() int64 {
	var total int64
	for _, b := range w.ring {
		total += b.Seen()
	}
	return total
}

// Clone returns a copy that evolves independently of w, the freeze
// half of the service's clone-and-publish snapshot discipline. Only the
// open (newest) bucket is deep-copied; the sealed buckets are shared by
// pointer. That is safe because nothing writes a sealed bucket: AddAttrs
// touches only the newest bucket, rotation opens a fresh one and drops
// the oldest from this window's own ring, and MergeWindowed reads its
// inputs and clones the buckets it keeps. A clone copies its ring, so
// rotating either window never moves the other's buckets.
func (w *WindowedReservoir) Clone() *WindowedReservoir {
	c := *w
	c.ring = append([]*Reservoir(nil), w.ring...)
	last := len(c.ring) - 1
	c.ring[last] = c.ring[last].Clone()
	return &c
}

// Name implements core.Sketch with the registered wire name.
func (w *WindowedReservoir) Name() string { return WindowedKindName }

// Params returns the recorded (k, ε, δ) contract.
func (w *WindowedReservoir) Params() core.Params { return w.params }

// NumAttrs returns the attribute universe size d.
func (w *WindowedReservoir) NumAttrs() int { return w.d }

// Estimate returns the windowed frequency estimate of T: the
// seen-weighted average of the bucket sample frequencies, which is the
// expectation of the merged-bucket sample frequency over the trailing
// window.
func (w *WindowedReservoir) Estimate(t dataset.Itemset) float64 {
	var num, den float64
	for _, b := range w.ring {
		if s := b.Seen(); s > 0 {
			num += float64(s) * b.Estimate(t)
			den += float64(s)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Frequent thresholds the windowed estimate at 3ε/4, mirroring the
// estimate-backed indicators of the core package.
func (w *WindowedReservoir) Frequent(t dataset.Itemset) bool {
	return w.Estimate(t) >= 0.75*w.params.Eps
}

// SizeBits returns the exact serialized size in bits — an analytic
// formula (no counting pass): every field below the type tag has fixed
// width except the bucket samples, whose size is n·d plus the 64-bit
// dataset header.
func (w *WindowedReservoir) SizeBits() int64 {
	total := int64(core.KindTagBits) + int64(core.ParamsBits) + windowedFixedBits
	for _, b := range w.ring {
		total += 64 + // seen
			64 + // dataset d+n header
			b.sample.SizeBits()
	}
	return total
}

// MarshalBits appends the self-describing encoding: the registry type
// tag, then the payload documented above.
func (w *WindowedReservoir) MarshalBits(bw bitvec.BitWriter) {
	bw.WriteUint(uint64(WindowedKindTag), core.KindTagBits)
	core.MarshalParams(bw, w.params)
	bw.WriteUint(uint64(w.d), windowedDimBits)
	bw.WriteUint(uint64(w.bucketRows), windowedDimBits)
	bw.WriteUint(uint64(w.buckets), windowedBucketBits)
	bw.WriteUint(uint64(w.capacity), windowedDimBits)
	bw.WriteUint(w.seed, 64)
	bw.WriteUint(uint64(w.epoch), 64)
	bw.WriteUint(uint64(len(w.ring)), windowedBucketBits)
	for _, b := range w.ring {
		bw.WriteUint(uint64(b.Seen()), 64)
		b.sample.MarshalBits(bw)
	}
}

// unmarshalWindowed is the registered decoder: it reads the payload
// body that follows the type tag and re-validates every invariant, so
// a hostile stream cannot smuggle in an impossible window. The
// restored buckets draw fresh coins from a deterministic derivation of
// the encoded state (see RestoreReservoir for why that preserves the
// uniformity guarantee).
func unmarshalWindowed(r bitvec.BitReader) (core.Sketch, error) {
	p, err := core.UnmarshalParams(r)
	if err != nil {
		return nil, err
	}
	d, err := r.ReadUint(windowedDimBits)
	if err != nil {
		return nil, err
	}
	bucketRows, err := r.ReadUint(windowedDimBits)
	if err != nil {
		return nil, err
	}
	buckets, err := r.ReadUint(windowedBucketBits)
	if err != nil {
		return nil, err
	}
	capacity, err := r.ReadUint(windowedDimBits)
	if err != nil {
		return nil, err
	}
	seed, err := r.ReadUint(64)
	if err != nil {
		return nil, err
	}
	epoch, err := r.ReadUint(64)
	if err != nil {
		return nil, err
	}
	live, err := r.ReadUint(windowedBucketBits)
	if err != nil {
		return nil, err
	}
	if d < 1 || bucketRows < 1 || buckets < 1 || capacity < 1 {
		return nil, fmt.Errorf("windowed geometry d=%d bucketRows=%d buckets=%d capacity=%d has a zero field", d, bucketRows, buckets, capacity)
	}
	if epoch > 1<<62 {
		return nil, fmt.Errorf("windowed epoch %d is implausible", epoch)
	}
	if live > buckets {
		return nil, fmt.Errorf("windowed chain of %d buckets exceeds the %d-bucket window", live, buckets)
	}
	if live == 0 || live > epoch+1 {
		return nil, fmt.Errorf("windowed chain of %d buckets cannot end at epoch %d", live, epoch)
	}
	if int(p.K) > int(d) {
		return nil, fmt.Errorf("windowed params k = %d exceeds d = %d", p.K, d)
	}
	windowRows := int(bucketRows) * int(buckets)
	if windowRows/int(buckets) != int(bucketRows) {
		return nil, fmt.Errorf("windowed geometry %d×%d overflows", bucketRows, buckets)
	}
	w := &WindowedReservoir{
		params:     p,
		d:          int(d),
		bucketRows: int(bucketRows),
		buckets:    int(buckets),
		capacity:   int(capacity),
		seed:       seed,
		epoch:      int64(epoch),
	}
	first := w.epoch - int64(live) + 1
	for i := int64(0); i < int64(live); i++ {
		seen, err := r.ReadUint(64)
		if err != nil {
			return nil, err
		}
		sample, err := dataset.UnmarshalBits(r)
		if err != nil {
			return nil, err
		}
		if sample.NumCols() != int(d) {
			return nil, fmt.Errorf("bucket %d sample has %d attributes, window has %d", i, sample.NumCols(), d)
		}
		if sample.NumRows() > int(capacity) {
			return nil, fmt.Errorf("bucket %d sample holds %d rows, capacity is %d", i, sample.NumRows(), capacity)
		}
		if seen > 1<<62 || int64(seen) < int64(sample.NumRows()) {
			return nil, fmt.Errorf("bucket %d seen counter %d below its %d sample rows", i, seen, sample.NumRows())
		}
		bucketEpoch := first + i
		res, err := RestoreReservoir(sample, int(capacity), int64(seen),
			mix64(w.bucketSeed(bucketEpoch), seen, uint64(windowedRestoreSalt)))
		if err != nil {
			return nil, err
		}
		w.ring = append(w.ring, res)
	}
	return w, nil
}

// windowedRestoreSalt separates restore-coin derivation from the
// bucket-seed derivation, so a restored bucket never replays the coins
// the original already consumed.
const windowedRestoreSalt = 0x77696e646f77 // "window"

// MergeWindowed combines two windowed reservoirs over disjoint row
// streams whose rotations advance in (approximate) lockstep — the
// service's sharded-ingest shape, where round-robin routing keeps
// shard epochs within one rotation of each other. Buckets are aligned
// by epoch index and merged pairwise with Merge; an epoch present in
// only one input is cloned, and an epoch in neither (inputs that
// drifted apart) becomes an empty bucket. The result covers the
// trailing window ending at the later input's epoch and estimates the
// union stream; both inputs must share geometry and params and are not
// modified.
func MergeWindowed(a, b *WindowedReservoir, seed uint64) (*WindowedReservoir, error) {
	if a.d != b.d || a.bucketRows != b.bucketRows || a.buckets != b.buckets || a.capacity != b.capacity {
		return nil, fmt.Errorf("%w: windowed merge geometry mismatch (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			core.ErrInvalidParams,
			a.d, a.bucketRows, a.buckets, a.capacity,
			b.d, b.bucketRows, b.buckets, b.capacity)
	}
	if a.params != b.params {
		return nil, fmt.Errorf("%w: windowed merge params mismatch", core.ErrInvalidParams)
	}
	out := &WindowedReservoir{
		params:     a.params,
		d:          a.d,
		bucketRows: a.bucketRows,
		buckets:    a.buckets,
		capacity:   a.capacity,
		seed:       seed,
		epoch:      a.epoch,
	}
	if b.epoch > out.epoch {
		out.epoch = b.epoch
	}
	first := out.epoch - int64(out.buckets) + 1
	if first < 0 {
		first = 0
	}
	for e := first; e <= out.epoch; e++ {
		ab, bb := a.bucketAt(e), b.bucketAt(e)
		var (
			m   *Reservoir
			err error
		)
		switch {
		case ab != nil && bb != nil:
			m, err = Merge(ab, bb, mix64(seed, uint64(e)))
		case ab != nil:
			m = ab.Clone()
		case bb != nil:
			m = bb.Clone()
		default:
			m, err = NewReservoir(out.d, out.capacity, out.bucketSeed(e))
		}
		if err != nil {
			return nil, err
		}
		out.ring = append(out.ring, m)
	}
	return out, nil
}

// bucketAt returns the live bucket for an epoch index, or nil when the
// epoch has left (or not yet entered) this window.
func (w *WindowedReservoir) bucketAt(e int64) *Reservoir {
	first := w.epoch - int64(len(w.ring)) + 1
	if e < first || e > w.epoch {
		return nil
	}
	return w.ring[e-first]
}

// mergeWindowedKind is the registry merge hook. The merge seed is
// derived deterministically from the input seeds, so registry merges
// of the same inputs always produce the same bits.
func mergeWindowedKind(a, b core.Sketch) (core.Sketch, error) {
	wa, aok := a.(*WindowedReservoir)
	wb, bok := b.(*WindowedReservoir)
	if !aok || !bok {
		return nil, fmt.Errorf("%w: windowed merge of %T and %T", core.ErrInvalidParams, a, b)
	}
	return MergeWindowed(wa, wb, mix64(wa.seed, wb.seed))
}

// Compile-time interface checks.
var (
	_ core.Sketch          = (*WindowedReservoir)(nil)
	_ core.EstimatorSketch = (*WindowedReservoir)(nil)
)
