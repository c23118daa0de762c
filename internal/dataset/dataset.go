// Package dataset implements the binary databases the paper sketches:
// D ∈ ({0,1}^d)^n with n rows and d attribute columns, itemsets
// T ⊆ [d], and itemset frequencies f_T(D) — the fraction of rows that
// contain T (a 1 in every column of T).
//
// # Storage layout
//
// A Database is a single contiguous row-major []uint64 arena. Each row
// occupies stride = ⌈d/64⌉ words (rows are padded to a word boundary),
// so row i lives at arena[i*stride : (i+1)*stride] and an append is a
// block copy into the arena with amortized geometric growth. There is
// no per-row header, no pointer chasing, and a full-database clone or
// merge is a single memcpy. Bits past column d−1 in a row's last word
// are always zero.
//
// The vertical layout (BuildColumnIndex) is a second contiguous arena,
// column-major: attribute a's n-bit row bitmap occupies colStride =
// ⌈n/64⌉ words. It is built by a blocked 64×64 bit transpose of the row
// arena and invalidated by any mutation.
//
// # Query paths
//
// Three query paths answer Count/Frequency; the serial and vertical
// paths are zero-allocation in steady state (the sharded scan pays a
// small per-call allocation for the shared indicator, the per-shard
// counters, and goroutine spawns — amortized across the rows each
// shard scans):
//
//   - Horizontal scan: tests itemset containment word-parallel against
//     each row. Wins when there is no column index, or for itemsets
//     touching many attributes on narrow databases.
//   - Sharded horizontal scan: the same scan split across GOMAXPROCS
//     goroutines over row ranges (capped by SetMaxWorkers); engaged
//     automatically above parallelRowThreshold rows. See ScanCount to
//     force a worker count.
//   - Vertical fused intersection: ANDs the k attribute bitmaps of the
//     column index in a single fused pass that popcounts as it goes
//     (bitvec.AndCountAll), never materializing the intersection. Wins
//     for small k over many rows — the classical vertical / tidlist
//     layout from the frequent-itemset-mining literature — and is used
//     automatically whenever the column index is built. Itemsets wider
//     than maxFusedCols fall back to a pooled accumulator with
//     early-exit (bitvec.AndInto returns the running popcount, so an
//     empty intersection stops the attribute loop without a second
//     popcount pass).
//
// CountMany batches queries and shards them across CPUs when the
// column index is present, answering each query with the fused
// vertical kernel.
package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitvec"
)

// Itemset is a set of attribute indices, stored strictly increasing.
// The zero value is the empty itemset.
type Itemset struct {
	attrs []int
}

// NewItemset builds an itemset from the given attributes. The input may
// be in any order; duplicates are rejected.
func NewItemset(attrs ...int) (Itemset, error) {
	s := append([]int(nil), attrs...)
	sort.Ints(s)
	for i, a := range s {
		if a < 0 {
			return Itemset{}, fmt.Errorf("dataset: negative attribute %d", a)
		}
		if i > 0 && s[i-1] == a {
			return Itemset{}, fmt.Errorf("dataset: duplicate attribute %d", a)
		}
	}
	return Itemset{attrs: s}, nil
}

// MustItemset is NewItemset that panics on error, for tests and
// constructions with known-valid inputs.
func MustItemset(attrs ...int) Itemset {
	t, err := NewItemset(attrs...)
	if err != nil {
		panic(err)
	}
	return t
}

// ItemsetView wraps attrs as an Itemset without copying — the
// zero-allocation constructor the mining engine uses to carve result
// itemsets out of a reused arena. attrs must be strictly increasing and
// non-negative (checked; panics otherwise, so the sortedness invariant
// every query path relies on cannot be broken silently). The caller
// retains ownership: mutating attrs afterwards changes the itemset.
func ItemsetView(attrs []int) Itemset {
	for i, a := range attrs {
		if a < 0 {
			panic(fmt.Sprintf("dataset: negative attribute %d", a))
		}
		if i > 0 && attrs[i-1] >= a {
			panic(fmt.Sprintf("dataset: ItemsetView attrs not strictly increasing at %d", i))
		}
	}
	return Itemset{attrs: attrs}
}

// Len returns the number of attributes (k for a k-itemset).
func (t Itemset) Len() int { return len(t.attrs) }

// Attrs returns the attributes in increasing order. Callers must not
// mutate the returned slice.
func (t Itemset) Attrs() []int { return t.attrs }

// MaxAttr returns the largest attribute index, or -1 for the empty set.
func (t Itemset) MaxAttr() int {
	if len(t.attrs) == 0 {
		return -1
	}
	return t.attrs[len(t.attrs)-1]
}

// Contains reports whether attribute a is in the itemset.
func (t Itemset) Contains(a int) bool {
	i := sort.SearchInts(t.attrs, a)
	return i < len(t.attrs) && t.attrs[i] == a
}

// Union returns the union of t and u.
func (t Itemset) Union(u Itemset) Itemset {
	merged := make([]int, 0, len(t.attrs)+len(u.attrs))
	i, j := 0, 0
	for i < len(t.attrs) && j < len(u.attrs) {
		switch {
		case t.attrs[i] < u.attrs[j]:
			merged = append(merged, t.attrs[i])
			i++
		case t.attrs[i] > u.attrs[j]:
			merged = append(merged, u.attrs[j])
			j++
		default:
			merged = append(merged, t.attrs[i])
			i++
			j++
		}
	}
	merged = append(merged, t.attrs[i:]...)
	merged = append(merged, u.attrs[j:]...)
	return Itemset{attrs: merged}
}

// Shift returns the itemset with every attribute increased by off.
func (t Itemset) Shift(off int) Itemset {
	s := make([]int, len(t.attrs))
	for i, a := range t.attrs {
		s[i] = a + off
	}
	return Itemset{attrs: s}
}

// Equal reports whether t and u contain the same attributes.
func (t Itemset) Equal(u Itemset) bool {
	if len(t.attrs) != len(u.attrs) {
		return false
	}
	for i := range t.attrs {
		if t.attrs[i] != u.attrs[i] {
			return false
		}
	}
	return true
}

// Indicator returns the d-length indicator bit vector of the itemset.
// All attributes must be < d.
func (t Itemset) Indicator(d int) *bitvec.Vector {
	v := bitvec.New(d)
	for _, a := range t.attrs {
		v.Set(a)
	}
	return v
}

// indicatorWords fills dst (length ≥ ⌈d/64⌉, zeroed by this call up to
// that length) with the itemset's indicator bits. It is the
// allocation-free core of Indicator used by the query paths.
func (t Itemset) indicatorWords(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, a := range t.attrs {
		dst[a>>6] |= 1 << (uint(a) & 63)
	}
}

// String renders the itemset as {a,b,c}.
func (t Itemset) String() string {
	parts := make([]string, len(t.attrs))
	for i, a := range t.attrs {
		parts[i] = strconv.Itoa(a)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Key returns a canonical map key for the itemset.
func (t Itemset) Key() string {
	return t.String()
}

const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int {
	return (n + wordBits - 1) / wordBits
}

// maxFusedCols caps the arity of the single-pass fused vertical
// intersection; wider itemsets use the pooled accumulator path. Eight
// column streams keep the inner loop in registers while covering every
// itemset size the paper's regimes (k = O(1)) care about.
const maxFusedCols = 8

// parallelRowThreshold is the minimum row count before a horizontal
// scan shards across goroutines; below it, goroutine startup dominates.
// The 2^14 value was tuned on the 100k-row × 64-col benchmark database:
// a shard needs tens of microseconds of scanning to amortize its spawn.
// Re-checked when the bitvec kernel layer gained AVX2 dispatch: the
// horizontal scan runs on ContainsAllWords, which is not dispatched
// (its per-row early exit defeats a fixed-stride vector kernel), so
// per-row scan cost is unchanged and the threshold stands; revisit on
// the multi-core runner (see ROADMAP), not here.
//
// CI caveat: the sharded paths only beat the serial ones with
// GOMAXPROCS > 1. The reference CI container has a single CPU, so there
// scan_parallel ≈ scan_serial (plus a few hundred bytes of goroutine
// bookkeeping) and the BENCH_*.json numbers for parallel paths should
// be read as "no regression", not as the speedup; see README.md.
const parallelRowThreshold = 1 << 14

// stackIndicatorWords is the widest indicator built on the stack by the
// query paths (1024 columns); wider databases fall back to one heap
// allocation per query.
const stackIndicatorWords = 16

// Database is a binary database with a fixed number of attribute
// columns and an append-only list of rows, stored as a contiguous
// row-major bit-matrix arena (see the package documentation).
type Database struct {
	d      int
	stride int // words per row
	n      int
	arena  []uint64 // len n*stride, row-major

	// Vertical layout: colArena, if non-nil, holds d row-bitmaps of
	// colStride words each; cols[a] is a Vector view of attribute a's
	// bitmap. Invalidated by any mutation.
	colStride int
	colArena  []uint64
	cols      []bitvec.Vector

	// maxWorkers caps query parallelism; 0 means GOMAXPROCS.
	maxWorkers int
}

// NewDatabase returns an empty database with d attribute columns.
func NewDatabase(d int) *Database {
	if d <= 0 {
		panic("dataset: database needs at least one column")
	}
	return &Database{d: d, stride: wordsFor(d)}
}

// NumCols returns d, the number of attributes.
func (db *Database) NumCols() int { return db.d }

// NumRows returns n, the number of rows.
func (db *Database) NumRows() int { return db.n }

// Reserve grows the arena capacity to hold at least nrows rows without
// further reallocation.
func (db *Database) Reserve(nrows int) {
	need := nrows * db.stride
	if cap(db.arena) >= need {
		return
	}
	a := make([]uint64, len(db.arena), need)
	copy(a, db.arena)
	db.arena = a
}

// Grow appends nrows zeroed rows in one arena extension. It is the
// pre-sizing half of the parallel sketch-construction pattern in
// internal/core: Grow once from a single goroutine, then let workers
// fill disjoint rows concurrently through RowWords (writes to distinct
// rows never alias, so no synchronization beyond the final join is
// needed). It invalidates the column index.
func (db *Database) Grow(nrows int) {
	if nrows <= 0 {
		return
	}
	need := (db.n + nrows) * db.stride
	if cap(db.arena) < need {
		newCap := 2 * cap(db.arena)
		if newCap < need {
			newCap = need
		}
		a := make([]uint64, len(db.arena), newCap)
		copy(a, db.arena)
		db.arena = a
	}
	lo := db.n * db.stride
	db.arena = db.arena[:need]
	fresh := db.arena[lo:]
	for i := range fresh {
		fresh[i] = 0
	}
	db.n += nrows
	db.invalidateIndex()
}

// grow appends one zeroed row to the arena and returns its word slice.
// It invalidates the column index.
func (db *Database) grow() []uint64 {
	db.Grow(1)
	return db.arena[(db.n-1)*db.stride : db.n*db.stride]
}

func (db *Database) invalidateIndex() {
	db.colArena = nil
	db.cols = nil
}

// AddRow appends a copy of row. The vector's length must equal NumCols.
// The caller keeps ownership of the vector.
func (db *Database) AddRow(row *bitvec.Vector) {
	if row.Len() != db.d {
		panic(fmt.Sprintf("dataset: row length %d != %d columns", row.Len(), db.d))
	}
	copy(db.grow(), row.Words())
}

// AddRowAttrs appends a row containing exactly the given attributes.
func (db *Database) AddRowAttrs(attrs ...int) {
	db.checkAttrs(attrs)
	db.setAttrs(db.grow(), attrs)
}

// checkAttrs validates attribute ranges before any mutation, so a
// recovered panic never leaves a phantom or partially written row.
func (db *Database) checkAttrs(attrs []int) {
	for _, a := range attrs {
		if a < 0 || a >= db.d {
			panic(fmt.Sprintf("dataset: attribute %d out of range [0,%d)", a, db.d))
		}
	}
}

// setAttrs sets already-validated attribute bits in row.
func (db *Database) setAttrs(row []uint64, attrs []int) {
	for _, a := range attrs {
		row[a>>6] |= 1 << (uint(a) & 63)
	}
}

// SetRow overwrites row i with a copy of row.
func (db *Database) SetRow(i int, row *bitvec.Vector) {
	if row.Len() != db.d {
		panic(fmt.Sprintf("dataset: row length %d != %d columns", row.Len(), db.d))
	}
	copy(db.RowWords(i), row.Words())
	db.invalidateIndex()
}

// SetRowAttrs overwrites row i with a row containing exactly the given
// attributes.
func (db *Database) SetRowAttrs(i int, attrs ...int) {
	db.checkAttrs(attrs)
	w := db.RowWords(i)
	for j := range w {
		w[j] = 0
	}
	db.setAttrs(w, attrs)
	db.invalidateIndex()
}

// CopyRowFrom appends a copy of row i of src, which must have the same
// number of columns. This is the arena block-copy append used by the
// samplers: no intermediate Vector is materialized.
func (db *Database) CopyRowFrom(src *Database, i int) {
	if src.d != db.d {
		panic(fmt.Sprintf("dataset: column mismatch %d vs %d", src.d, db.d))
	}
	copy(db.grow(), src.RowWords(i))
}

// SetRowFrom overwrites row i with a copy of row j of src, which must
// have the same number of columns.
func (db *Database) SetRowFrom(i int, src *Database, j int) {
	if src.d != db.d {
		panic(fmt.Sprintf("dataset: column mismatch %d vs %d", src.d, db.d))
	}
	copy(db.RowWords(i), src.RowWords(j))
	db.invalidateIndex()
}

// RowWords returns row i's packed words, a view into the arena. The
// slice is valid until the next mutation; callers must not modify it
// or grow it.
func (db *Database) RowWords(i int) []uint64 {
	if i < 0 || i >= db.n {
		panic(fmt.Sprintf("dataset: row %d out of range [0,%d)", i, db.n))
	}
	lo := i * db.stride
	hi := lo + db.stride
	return db.arena[lo:hi:hi]
}

// Row returns row i as a read-only Vector view into the arena. The
// view is valid until the next mutation; callers must not mutate it.
func (db *Database) Row(i int) *bitvec.Vector {
	v := bitvec.Wrap(db.d, db.RowWords(i))
	return &v
}

// AppendRowOnes appends the set attribute indices of row i to dst and
// returns it — the allocation-free alternative to Row(i).Ones().
func (db *Database) AppendRowOnes(dst []int, i int) []int {
	for wi, w := range db.RowWords(i) {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// RowContains reports whether row i contains itemset T.
func (db *Database) RowContains(i int, t Itemset) bool {
	row := db.RowWords(i)
	for _, a := range t.attrs {
		if a >= db.d {
			panic(fmt.Sprintf("dataset: attribute %d exceeds %d columns", a, db.d))
		}
		if row[a>>6]>>(uint(a)&63)&1 == 0 {
			return false
		}
	}
	return true
}

// SetMaxWorkers caps the number of goroutines query paths may use.
// k ≤ 0 restores the default (GOMAXPROCS).
func (db *Database) SetMaxWorkers(k int) {
	if k < 0 {
		k = 0
	}
	db.maxWorkers = k
}

func (db *Database) workers() int {
	w := db.maxWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Count returns the number of rows that contain T. With a column index
// it uses the fused vertical kernel; otherwise it scans horizontally,
// sharding across CPUs for large row counts.
func (db *Database) Count(t Itemset) int {
	if t.MaxAttr() >= db.d {
		panic(fmt.Sprintf("dataset: itemset %v exceeds %d columns", t, db.d))
	}
	if db.cols != nil {
		return db.countVertical(t)
	}
	workers := 1
	if db.n >= parallelRowThreshold {
		workers = db.workers()
	}
	return db.ScanCount(t, workers)
}

// Frequency returns f_T(D) = Count(T)/n. The frequency of any itemset
// on an empty database is 0.
func (db *Database) Frequency(t Itemset) float64 {
	if db.n == 0 {
		return 0
	}
	return float64(db.Count(t)) / float64(db.n)
}

// CountMany answers one Count per itemset, sharding the batch across
// CPUs when a column index is present and the batch is large enough.
func (db *Database) CountMany(ts []Itemset) []int {
	out := make([]int, len(ts))
	db.CountManyInto(out, ts)
	return out
}

// CountManyInto is CountMany into a caller-provided slice, which must
// have len(ts) elements.
func (db *Database) CountManyInto(dst []int, ts []Itemset) {
	if len(dst) != len(ts) {
		panic(fmt.Sprintf("dataset: CountManyInto dst length %d != %d itemsets", len(dst), len(ts)))
	}
	// Validate every itemset before spawning workers: a panic inside a
	// worker goroutine could not be recovered by the caller.
	for _, t := range ts {
		if t.MaxAttr() >= db.d {
			panic(fmt.Sprintf("dataset: itemset %v exceeds %d columns", t, db.d))
		}
	}
	workers := db.workers()
	if workers > len(ts)/2 {
		workers = len(ts) / 2
	}
	if db.cols == nil || workers <= 1 {
		for i, t := range ts {
			dst[i] = db.Count(t)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(ts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(ts) {
			hi = len(ts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				dst[i] = db.Count(ts[i])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ScanCount counts rows containing T by horizontal scan, ignoring any
// column index. workers ≤ 1 scans serially; otherwise the row range is
// split across that many goroutines. Exposed so callers (and
// benchmarks) can pin the scan strategy; Count picks automatically,
// engaging the sharded scan only above parallelRowThreshold rows and
// when more than one CPU is available.
func (db *Database) ScanCount(t Itemset, workers int) int {
	if t.MaxAttr() >= db.d {
		panic(fmt.Sprintf("dataset: itemset %v exceeds %d columns", t, db.d))
	}
	if workers <= 1 || db.n == 0 {
		return db.scanSerial(t)
	}
	return db.scanParallel(t, workers)
}

// scanSerial is the single-goroutine scan, kept free of closures so
// the stack-allocated indicator never escapes: zero allocations for
// databases up to stackIndicatorWords·64 columns.
func (db *Database) scanSerial(t Itemset) int {
	var stackInd [stackIndicatorWords]uint64
	var ind []uint64
	if db.stride <= stackIndicatorWords {
		ind = stackInd[:db.stride]
	} else {
		ind = make([]uint64, db.stride)
	}
	t.indicatorWords(ind)
	return db.scanRange(ind, 0, db.n)
}

// scanParallel shards the scan across workers goroutines; the
// indicator is shared read-only by the shards (it escapes to the heap
// here, which is why the serial path lives in its own function).
func (db *Database) scanParallel(t Itemset, workers int) int {
	ind := make([]uint64, db.stride)
	t.indicatorWords(ind)
	if workers > db.n {
		workers = db.n
	}
	counts := make([]int, workers)
	var wg sync.WaitGroup
	chunk := (db.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > db.n {
			hi = db.n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			counts[w] = db.scanRange(ind, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	c := 0
	for _, x := range counts {
		c += x
	}
	return c
}

// scanRange counts rows in [lo, hi) containing the indicator ind.
func (db *Database) scanRange(ind []uint64, lo, hi int) int {
	c := 0
	if db.stride == 1 {
		// Common narrow-database case (d ≤ 64): one word per row.
		t := ind[0]
		for _, w := range db.arena[lo:hi] {
			if t&^w == 0 {
				c++
			}
		}
		return c
	}
	s := db.stride
	for r := lo; r < hi; r++ {
		if bitvec.ContainsAllWords(db.arena[r*s:(r+1)*s], ind) {
			c++
		}
	}
	return c
}

// BuildColumnIndex materializes the vertical layout so subsequent Count
// calls intersect per-attribute bitmaps instead of scanning rows. The
// index is one contiguous column-major arena.
//
// The build is a blocked 64×64 bit transpose (Hacker's Delight §7-3).
// Each block of 64 rows × one row word is loaded (rows past n read as
// zero, so the padding bits of every column's last word are zero),
// transposed in place in six mask-and-shift stages (transpose64), and
// stored as the block's column words; the columns past d, which hold
// the rows' all-zero padding, are dropped. The cost is a fixed
// ⌈n/64⌉·⌈d/64⌉ block transposes whatever the density, where a
// per-set-bit scatter grows with the number of ones.
func (db *Database) BuildColumnIndex() {
	cs := wordsFor(db.n)
	s := db.stride
	db.colStride = cs
	db.colArena = make([]uint64, db.d*cs)
	var blk [wordBits]uint64
	for rb := 0; rb < cs; rb++ {
		r0 := rb * wordBits
		rows := min(wordBits, db.n-r0)
		for wi := 0; wi < s; wi++ {
			if s == 1 {
				copy(blk[:], db.arena[r0:r0+rows])
			} else {
				for j := 0; j < rows; j++ {
					blk[j] = db.arena[(r0+j)*s+wi]
				}
			}
			clear(blk[rows:])
			transpose64(&blk)
			a0 := wi * wordBits
			col := db.colArena[a0*cs+rb:]
			for k := range min(wordBits, db.d-a0) {
				col[k*cs] = blk[k]
			}
		}
	}
	db.cols = make([]bitvec.Vector, db.d)
	for a := 0; a < db.d; a++ {
		db.cols[a] = bitvec.Wrap(db.n, db.colArena[a*cs:(a+1)*cs:(a+1)*cs])
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit c of word r
// moves to bit r of word c. Stage j (j = 32, 16, …, 1) swaps the
// off-diagonal j×j sub-blocks of every 2j×2j block: the high j bits of
// each 2j-bit group of word k trade places with the low j bits of word
// k+j, one mask-and-shift per word pair. Stages 32, 16 and 8 pair words
// that lie a multiple of 8 apart, and stages 4, 2 and 1 pair words
// inside one aligned run of 8, so the six stages run as two passes of
// eight 8-word groups, each group held in registers through its three
// stages.
func transpose64(x *[wordBits]uint64) {
	for k := 0; k < 8; k++ {
		transposeHi(x, k)
	}
	for g := 0; g < wordBits; g += 8 {
		transposeLo(x, g)
	}
}

// deltaSwap exchanges the bits of a selected by m<<j with the bits of
// b selected by m.
func deltaSwap(a, b uint64, j uint, m uint64) (uint64, uint64) {
	t := (a>>j ^ b) & m
	return a ^ t<<j, b ^ t
}

// transposeHi runs stages 32, 16 and 8 on the words k, k+8, …, k+56.
func transposeHi(x *[wordBits]uint64, k int) {
	k &= 7
	w0, w1, w2, w3 := x[k], x[k+8], x[k+16], x[k+24]
	w4, w5, w6, w7 := x[k+32], x[k+40], x[k+48], x[k+56]
	const m32, m16, m8 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	w0, w4 = deltaSwap(w0, w4, 32, m32)
	w1, w5 = deltaSwap(w1, w5, 32, m32)
	w2, w6 = deltaSwap(w2, w6, 32, m32)
	w3, w7 = deltaSwap(w3, w7, 32, m32)
	w0, w2 = deltaSwap(w0, w2, 16, m16)
	w1, w3 = deltaSwap(w1, w3, 16, m16)
	w4, w6 = deltaSwap(w4, w6, 16, m16)
	w5, w7 = deltaSwap(w5, w7, 16, m16)
	w0, w1 = deltaSwap(w0, w1, 8, m8)
	w2, w3 = deltaSwap(w2, w3, 8, m8)
	w4, w5 = deltaSwap(w4, w5, 8, m8)
	w6, w7 = deltaSwap(w6, w7, 8, m8)
	x[k], x[k+8], x[k+16], x[k+24] = w0, w1, w2, w3
	x[k+32], x[k+40], x[k+48], x[k+56] = w4, w5, w6, w7
}

// transposeLo runs stages 4, 2 and 1 on the words g, g+1, …, g+7
// (g a multiple of 8).
func transposeLo(x *[wordBits]uint64, g int) {
	o := (*[8]uint64)(x[g&56 : g&56+8])
	w0, w1, w2, w3, w4, w5, w6, w7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
	const m4, m2, m1 = 0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555
	w0, w4 = deltaSwap(w0, w4, 4, m4)
	w1, w5 = deltaSwap(w1, w5, 4, m4)
	w2, w6 = deltaSwap(w2, w6, 4, m4)
	w3, w7 = deltaSwap(w3, w7, 4, m4)
	w0, w2 = deltaSwap(w0, w2, 2, m2)
	w1, w3 = deltaSwap(w1, w3, 2, m2)
	w4, w6 = deltaSwap(w4, w6, 2, m2)
	w5, w7 = deltaSwap(w5, w7, 2, m2)
	w0, w1 = deltaSwap(w0, w1, 1, m1)
	w2, w3 = deltaSwap(w2, w3, 1, m1)
	w4, w5 = deltaSwap(w4, w5, 1, m1)
	w6, w7 = deltaSwap(w6, w7, 1, m1)
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = w0, w1, w2, w3, w4, w5, w6, w7
}

// HasColumnIndex reports whether the vertical layout is materialized.
func (db *Database) HasColumnIndex() bool { return db.cols != nil }

// AttrColumn returns the row bitmap of attribute a from the column
// index, building the index if needed. The returned Vector is a view;
// callers must not mutate it.
func (db *Database) AttrColumn(a int) *bitvec.Vector {
	if db.cols == nil {
		db.BuildColumnIndex()
	}
	return &db.cols[a]
}

// ColumnCount returns the number of rows containing attribute a — the
// popcount of a's column bitmap, building the column index if needed.
// It is the per-column density statistic the adaptive miners use to
// pick tidset vs diffset representation at the root.
func (db *Database) ColumnCount(a int) int {
	if a < 0 || a >= db.d {
		panic(fmt.Sprintf("dataset: attribute %d out of range [0,%d)", a, db.d))
	}
	if db.cols == nil {
		db.BuildColumnIndex()
	}
	return bitvec.CountWords(db.colWords(a))
}

// colWords returns attribute a's row-bitmap words from the column
// index, which must be built.
func (db *Database) colWords(a int) []uint64 {
	lo := a * db.colStride
	hi := lo + db.colStride
	return db.colArena[lo:hi:hi]
}

// accPool recycles wide-itemset vertical accumulators so countVertical
// stays allocation-free in steady state regardless of itemset width.
var accPool = sync.Pool{New: func() any { return new([]uint64) }}

func (db *Database) countVertical(t Itemset) int {
	attrs := t.attrs
	switch len(attrs) {
	case 0:
		return db.n
	case 1:
		return bitvec.CountWords(db.colWords(attrs[0]))
	}
	if len(attrs) <= maxFusedCols {
		// Single fused pass over all k column bitmaps; the stack
		// array never escapes (AndCountAll does not retain it).
		var buf [maxFusedCols][]uint64
		cols := buf[:len(attrs)]
		for i, a := range attrs {
			cols[i] = db.colWords(a)
		}
		return bitvec.AndCountAll(cols)
	}
	// Wide itemsets: pooled accumulator with early exit. The
	// accumulation runs through the capped kernel with the previous
	// pass's count as the budget: an AND can only clear bits, so the
	// running popcount never exceeds the cap and AndIntoCapped always
	// completes with the exact count (equivalence vs the uncapped
	// kernels is pinned by TestCountVerticalWideEquivalence). Sharing
	// the miners' capped block loop keeps one code path riding the
	// dispatched SIMD kernels, and an empty intersection still stops
	// the column loop with no separate Count pass.
	ap := accPool.Get().(*[]uint64)
	acc := *ap
	if cap(acc) < db.colStride {
		acc = make([]uint64, db.colStride)
	}
	acc = acc[:db.colStride]
	cnt := bitvec.AndInto(acc, db.colWords(attrs[0]), db.colWords(attrs[1]))
	for _, a := range attrs[2:] {
		if cnt == 0 {
			break
		}
		cnt, _ = bitvec.AndIntoCapped(acc, acc, db.colWords(a), cnt)
	}
	*ap = acc
	accPool.Put(ap)
	return cnt
}

// Clone returns a deep copy of the database (without the column index).
// With the arena layout this is a single block copy.
func (db *Database) Clone() *Database {
	c := NewDatabase(db.d)
	c.n = db.n
	c.arena = append([]uint64(nil), db.arena...)
	c.maxWorkers = db.maxWorkers
	return c
}

// AppendDatabase appends all rows of other, which must have the same
// number of columns. Same-width databases share a stride, so this is a
// single arena block copy.
func (db *Database) AppendDatabase(other *Database) {
	if other.d != db.d {
		panic(fmt.Sprintf("dataset: column mismatch %d vs %d", other.d, db.d))
	}
	db.arena = append(db.arena, other.arena...)
	db.n += other.n
	db.invalidateIndex()
}

// SizeBits returns n·d, the verbatim size of the database in bits —
// exactly the space complexity of RELEASE-DB in the paper.
func (db *Database) SizeBits() int64 {
	return int64(db.n) * int64(db.d)
}

// MarshalBits writes the database to w: d and n as 32-bit counts
// followed by the n·d row bits.
func (db *Database) MarshalBits(w bitvec.BitWriter) {
	w.WriteUint(uint64(db.d), 32)
	w.WriteUint(uint64(db.n), 32)
	for i := 0; i < db.n; i++ {
		bitvec.WriteWords(w, db.RowWords(i), db.d)
	}
}

// UnmarshalBits reads a database written by MarshalBits.
func UnmarshalBits(r bitvec.BitReader) (*Database, error) {
	d, err := r.ReadUint(32)
	if err != nil {
		return nil, err
	}
	n, err := r.ReadUint(32)
	if err != nil {
		return nil, err
	}
	if d == 0 {
		return nil, errors.New("dataset: zero columns in encoded database")
	}
	db := NewDatabase(int(d))
	// Reserve for the declared row count, capped by what the stream can
	// actually hold so a corrupt header cannot trigger a huge allocation.
	if maxRows := uint64(r.Remaining()) / d; n <= maxRows {
		db.Reserve(int(n))
	}
	for i := uint64(0); i < n; i++ {
		if err := bitvec.ReadWords(r, db.grow(), int(d)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// WriteTransactions writes the database in the standard transaction
// format used by frequent-itemset-mining tools: one row per line,
// space-separated attribute indices of the 1-entries.
func (db *Database) WriteTransactions(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var ones []int
	for i := 0; i < db.n; i++ {
		ones = db.AppendRowOnes(ones[:0], i)
		for j, a := range ones {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(a)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTransactions parses the transaction format into a database with d
// columns. Attribute indices must be in [0, d).
func ReadTransactions(r io.Reader, d int) (*Database, error) {
	db := NewDatabase(d)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		row := db.grow()
		if line != "" {
			for _, f := range strings.Fields(line) {
				a, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d: bad attribute %q: %v", lineno, f, err)
				}
				if a < 0 || a >= d {
					return nil, fmt.Errorf("dataset: line %d: attribute %d out of range [0,%d)", lineno, a, d)
				}
				row[a>>6] |= 1 << (uint(a) & 63)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}
