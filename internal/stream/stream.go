// Package stream provides one-pass streaming algorithms connected to
// the paper's discussion.
//
// Reservoir sampling is the streaming implementation of SUBSAMPLE
// (Definition 8): one pass over the rows maintains a uniform sample, so
// the paper's optimal sketch is constructible without ever storing the
// database. The paper's §1.2/§5 observation — that no streaming
// algorithm for approximate frequent itemsets is known to beat uniform
// row sampling, and by its lower bounds none can by more than small
// factors — is what makes this simple sketch the practical default.
//
// Misra–Gries is included as the contrast: for the *single-item* heavy
// hitters problem, deterministic counter algorithms beat sampling
// (O(1/ε) counters, no log factors, deterministic guarantees). The
// paper's point is that this improvement does not extend to itemsets.
//
// # Relation to the parallel batch builders
//
// internal/core parallelizes *batch* construction (the whole database
// is in memory and chunks of sample slots are filled concurrently
// under a deterministic per-chunk seeding scheme — see
// internal/core/parallel.go). This package is the *distributed*
// counterpart: each stream shard runs its own Reservoir with its own
// seed, and Merge combines the shard reservoirs into a uniform sample
// of the union. Both constructions are deterministic functions of
// their seeds and inputs — a merged reservoir is reproducible from
// (shard seeds, merge seed, shard streams), just as a batch sketch is
// reproducible from (seed, database) for any worker count.
package stream

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// Reservoir maintains a uniform random sample of capacity rows from a
// row stream (Vitter's Algorithm R). The sample is uniform without
// replacement among all rows seen so far.
//
// The sample is held in a dataset.Database, i.e. the contiguous
// row-major arena layout: accepting a row is a block copy into a slot,
// Estimate runs the database's zero-allocation horizontal scan, and
// Merge copies rows arena-to-arena.
type Reservoir struct {
	d        int
	capacity int
	seen     int64
	sample   *dataset.Database
	rng      *rng.RNG
}

// NewReservoir creates a reservoir for d-attribute rows holding up to
// capacity rows.
func NewReservoir(d, capacity int, seed uint64) (*Reservoir, error) {
	if d < 1 {
		return nil, fmt.Errorf("%w: reservoir needs d ≥ 1, got %d", core.ErrInvalidParams, d)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("%w: reservoir needs capacity ≥ 1, got %d", core.ErrInvalidParams, capacity)
	}
	return &Reservoir{d: d, capacity: capacity, sample: dataset.NewDatabase(d), rng: rng.New(seed)}, nil
}

// accept returns the sample slot the next offered row should occupy:
// the append slot (== current size) while filling, a random slot in
// [0, capacity) to replace with probability capacity/seen, or -1 to
// discard the row. It advances the seen counter.
func (r *Reservoir) accept() int {
	r.seen++
	if n := r.sample.NumRows(); n < r.capacity {
		return n
	}
	j := r.rng.Int63() % r.seen
	if j < int64(r.capacity) {
		return int(j)
	}
	return -1
}

// Add offers one row to the reservoir. The row is copied.
func (r *Reservoir) Add(row *bitvec.Vector) {
	if row.Len() != r.d {
		panic(fmt.Sprintf("stream: row length %d, want %d", row.Len(), r.d))
	}
	switch j := r.accept(); {
	case j < 0:
	case j == r.sample.NumRows():
		r.sample.AddRow(row)
	default:
		r.sample.SetRow(j, row)
	}
}

// AddAttrs offers a row given as attribute indices. No row vector is
// materialized: the bits are written directly into the sample arena.
func (r *Reservoir) AddAttrs(attrs ...int) {
	// Validate before touching any state, so a recovered panic leaves
	// the seen counter and the sample intact.
	for _, a := range attrs {
		if a < 0 || a >= r.d {
			panic(fmt.Sprintf("stream: attribute %d out of range [0,%d)", a, r.d))
		}
	}
	switch j := r.accept(); {
	case j < 0: // discarded
	case j == r.sample.NumRows():
		r.sample.AddRowAttrs(attrs...)
	default:
		r.sample.SetRowAttrs(j, attrs...)
	}
}

// Seen returns the number of rows offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Len returns the current sample size.
func (r *Reservoir) Len() int { return r.sample.NumRows() }

// Capacity returns the maximum sample size.
func (r *Reservoir) Capacity() int { return r.capacity }

// Clone returns an independent copy of the reservoir: sample arena,
// seen counter and the generator state are all duplicated, so the
// clone and the original evolve identically-but-independently from
// here. The service layer snapshots shards this way — queries read a
// frozen clone while ingest keeps mutating the original.
func (r *Reservoir) Clone() *Reservoir {
	g := *r.rng
	return &Reservoir{
		d:        r.d,
		capacity: r.capacity,
		seen:     r.seen,
		sample:   r.sample.Clone(),
		rng:      &g,
	}
}

// RestoreReservoir rebuilds a reservoir from checkpointed state: the
// sample rows (adopted, not copied), the stream position seen, and a
// fresh generator seed for the rows still to come. Algorithm R's
// guarantee needs only the seen counter and independent future coins,
// so a restored reservoir continues the stream with the full uniform-
// sample property over (pre-crash rows it retained) ∪ (rows after
// recovery).
func RestoreReservoir(sample *dataset.Database, capacity int, seen int64, seed uint64) (*Reservoir, error) {
	if sample == nil {
		return nil, fmt.Errorf("%w: restore needs a sample database", core.ErrInvalidParams)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("%w: reservoir needs capacity ≥ 1, got %d", core.ErrInvalidParams, capacity)
	}
	if sample.NumRows() > capacity {
		return nil, fmt.Errorf("%w: checkpointed sample holds %d rows, capacity is %d", core.ErrInvalidParams, sample.NumRows(), capacity)
	}
	if seen < int64(sample.NumRows()) {
		return nil, fmt.Errorf("%w: seen counter %d below sample size %d", core.ErrInvalidParams, seen, sample.NumRows())
	}
	return &Reservoir{
		d:        sample.NumCols(),
		capacity: capacity,
		seen:     seen,
		sample:   sample,
		rng:      rng.New(seed),
	}, nil
}

// Database materializes the current sample as a database — the
// streaming SUBSAMPLE sketch payload. With the arena layout this is a
// single block copy.
func (r *Reservoir) Database() *dataset.Database {
	return r.sample.Clone()
}

// Sample returns the reservoir's own sample database, without a copy.
// The caller must not mutate it, and it changes under any later Add or
// AddAttrs; the service calls it only on a frozen Clone, whose sample
// then serves as both the snapshot's reservoir and its query database.
func (r *Reservoir) Sample() *dataset.Database {
	return r.sample
}

// Estimate returns the sample frequency of T, the Definition 8
// recovery procedure.
func (r *Reservoir) Estimate(t dataset.Itemset) float64 {
	return r.sample.Frequency(t)
}

// MisraGries is the deterministic heavy-hitters summary for single
// items: at most k−1 counters; after processing n item occurrences,
// every item's count is underestimated by at most n/k.
type MisraGries struct {
	k        int
	counters map[int]int64
	n        int64
}

// NewMisraGries creates a summary with parameter k ≥ 2 (k−1 counters;
// choose k = ⌈1/ε⌉+1 for additive error ε·n).
func NewMisraGries(k int) (*MisraGries, error) {
	if k < 2 {
		return nil, fmt.Errorf("%w: misra-gries needs k ≥ 2, got %d", core.ErrInvalidParams, k)
	}
	return &MisraGries{k: k, counters: make(map[int]int64)}, nil
}

// Add processes one occurrence of item.
func (mg *MisraGries) Add(item int) {
	mg.n++
	if _, ok := mg.counters[item]; ok {
		mg.counters[item]++
		return
	}
	if len(mg.counters) < mg.k-1 {
		mg.counters[item] = 1
		return
	}
	// Decrement-all step; delete exhausted counters.
	for it := range mg.counters {
		mg.counters[it]--
		if mg.counters[it] == 0 {
			delete(mg.counters, it)
		}
	}
}

// AddRow processes every set attribute of a row as one item occurrence.
func (mg *MisraGries) AddRow(row *bitvec.Vector) {
	for _, a := range row.Ones() {
		mg.Add(a)
	}
}

// N returns the number of item occurrences processed.
func (mg *MisraGries) N() int64 { return mg.n }

// Count returns the (under)estimate of item's occurrence count; the
// truth lies in [Count, Count + N/k].
func (mg *MisraGries) Count(item int) int64 { return mg.counters[item] }

// HeavyHitters returns all items whose true relative frequency might
// be at least phi, in decreasing count order. Every item with true
// frequency ≥ phi is included (no false negatives); items below
// phi − 1/k may appear (false positives are bounded by the guarantee).
func (mg *MisraGries) HeavyHitters(phi float64) []int {
	thresh := phi*float64(mg.n) - float64(mg.n)/float64(mg.k)
	var out []int
	for it, c := range mg.counters {
		if float64(c) >= thresh {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := mg.counters[out[i]], mg.counters[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// SizeCounters returns the number of live counters (≤ k−1).
func (mg *MisraGries) SizeCounters() int { return len(mg.counters) }

// Clone returns an independent copy of the summary.
func (mg *MisraGries) Clone() *MisraGries {
	c := &MisraGries{k: mg.k, n: mg.n, counters: make(map[int]int64, len(mg.counters))}
	for it, v := range mg.counters {
		c.counters[it] = v
	}
	return c
}

// Snapshot returns the summary's state in a deterministic order
// (ascending item), for serialization: the occurrence total and the
// parallel item/count slices.
func (mg *MisraGries) Snapshot() (n int64, items []int, counts []int64) {
	items = make([]int, 0, len(mg.counters))
	for it := range mg.counters {
		items = append(items, it)
	}
	sort.Ints(items)
	counts = make([]int64, len(items))
	for i, it := range items {
		counts[i] = mg.counters[it]
	}
	return mg.n, items, counts
}

// RestoreMisraGries rebuilds a summary from Snapshot state. The
// invariants (k ≥ 2, at most k−1 positive counters, n covering the
// counted occurrences) are validated so a corrupt checkpoint cannot
// smuggle in an impossible summary.
func RestoreMisraGries(k int, n int64, items []int, counts []int64) (*MisraGries, error) {
	mg, err := NewMisraGries(k)
	if err != nil {
		return nil, err
	}
	if len(items) != len(counts) {
		return nil, fmt.Errorf("%w: %d items but %d counts", core.ErrInvalidParams, len(items), len(counts))
	}
	if len(items) > k-1 {
		return nil, fmt.Errorf("%w: %d counters exceed the k-1 = %d bound", core.ErrInvalidParams, len(items), k-1)
	}
	var total int64
	for i, it := range items {
		if counts[i] <= 0 {
			return nil, fmt.Errorf("%w: non-positive counter %d for item %d", core.ErrInvalidParams, counts[i], it)
		}
		if _, dup := mg.counters[it]; dup {
			return nil, fmt.Errorf("%w: duplicate counter for item %d", core.ErrInvalidParams, it)
		}
		mg.counters[it] = counts[i]
		total += counts[i]
	}
	if n < total {
		return nil, fmt.Errorf("%w: occurrence total %d below counter sum %d", core.ErrInvalidParams, n, total)
	}
	mg.n = n
	return mg, nil
}
