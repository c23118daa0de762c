package dataset

import (
	"testing"

	"repro/internal/rng"
)

// naiveCount is the reference implementation every query path must
// agree with: a per-bit scan using only Row/Get semantics.
func naiveCount(db *Database, t Itemset) int {
	c := 0
	for i := 0; i < db.NumRows(); i++ {
		row := db.Row(i)
		ok := true
		for _, a := range t.Attrs() {
			if !row.Get(a) {
				ok = false
				break
			}
		}
		if ok {
			c++
		}
	}
	return c
}

func randomItemset(r *rng.RNG, d, maxK int) Itemset {
	// Only d distinct attributes exist; without this cap the collection
	// loop below would never terminate for k > d (the fuzzer found this
	// with d=9, maxK=10 — kept as corpus entry 5a6614a1854e4619).
	if maxK > d {
		maxK = d
	}
	k := r.Intn(maxK + 1) // 0 allowed: empty itemset edge case
	seen := map[int]bool{}
	var attrs []int
	for len(attrs) < k {
		a := r.Intn(d)
		if !seen[a] {
			seen[a] = true
			attrs = append(attrs, a)
		}
	}
	return MustItemset(attrs...)
}

// checkAllPathsAgree asserts the horizontal serial scan, the sharded
// parallel scan, the fused vertical path, and CountMany all equal the
// naive reference count for every itemset in ts.
func checkAllPathsAgree(t *testing.T, db *Database, ts []Itemset) {
	t.Helper()
	want := make([]int, len(ts))
	for i, T := range ts {
		want[i] = naiveCount(db, T)
	}
	for i, T := range ts {
		if got := db.ScanCount(T, 1); got != want[i] {
			t.Errorf("serial scan %v = %d, want %d (n=%d d=%d)", T, got, want[i], db.NumRows(), db.NumCols())
		}
		if got := db.ScanCount(T, 8); got != want[i] {
			t.Errorf("parallel scan %v = %d, want %d (n=%d d=%d)", T, got, want[i], db.NumRows(), db.NumCols())
		}
	}
	// Horizontal auto path (no index yet).
	if db.HasColumnIndex() {
		t.Fatalf("column index unexpectedly present before vertical phase")
	}
	for i, T := range ts {
		if got := db.Count(T); got != want[i] {
			t.Errorf("auto horizontal Count %v = %d, want %d", T, got, want[i])
		}
	}
	// Vertical fused path.
	db.BuildColumnIndex()
	for i, T := range ts {
		if got := db.Count(T); got != want[i] {
			t.Errorf("vertical Count %v = %d, want %d (n=%d d=%d)", T, got, want[i], db.NumRows(), db.NumCols())
		}
	}
	// Batch path on the vertical index.
	got := db.CountMany(ts)
	for i := range ts {
		if got[i] != want[i] {
			t.Errorf("CountMany[%d] %v = %d, want %d", i, ts[i], got[i], want[i])
		}
	}
}

// TestQueryPathsAgreeProperty cross-checks every query path on random
// databases, deliberately covering widths that are not multiples of 64
// (sub-word, word-boundary, and multi-word strides) and itemsets wider
// than the fused-kernel cap (so the pooled accumulator path runs).
func TestQueryPathsAgreeProperty(t *testing.T) {
	r := rng.New(7)
	dims := []struct{ n, d int }{
		{0, 5},   // empty database
		{1, 1},   // minimal
		{17, 63}, // just under a word
		{33, 64}, // exactly a word
		{40, 65}, // just over a word
		{100, 100},
		{257, 130}, // multi-word stride
		{1000, 40},
	}
	for _, dim := range dims {
		for trial := 0; trial < 3; trial++ {
			db := GenUniform(r, dim.n, dim.d, 0.3)
			var ts []Itemset
			ts = append(ts, MustItemset()) // empty itemset: count == n
			maxK := dim.d
			if maxK > maxFusedCols+3 {
				maxK = maxFusedCols + 3 // exercise the wide pooled path
			}
			for q := 0; q < 12; q++ {
				ts = append(ts, randomItemset(r, dim.d, maxK))
			}
			checkAllPathsAgree(t, db, ts)
		}
	}
}

// TestQueryPathsAgreeAfterMutation checks that SetRow-style mutations
// invalidate the vertical index and all paths agree afterwards.
func TestQueryPathsAgreeAfterMutation(t *testing.T) {
	r := rng.New(11)
	db := GenUniform(r, 64, 70, 0.4)
	db.BuildColumnIndex()
	if !db.HasColumnIndex() {
		t.Fatal("index not built")
	}
	db.SetRowAttrs(3, 0, 7, 69)
	if db.HasColumnIndex() {
		t.Fatal("SetRowAttrs did not invalidate the column index")
	}
	T := MustItemset(0, 7, 69)
	if got, want := db.Count(T), naiveCount(db, T); got != want {
		t.Fatalf("Count after mutation = %d, want %d", got, want)
	}
}

// TestCountManyMatchesCount checks the batch API against single
// queries on both the horizontal and vertical paths.
func TestCountManyMatchesCount(t *testing.T) {
	r := rng.New(13)
	db := GenUniform(r, 500, 48, 0.2)
	var ts []Itemset
	for q := 0; q < 40; q++ {
		ts = append(ts, randomItemset(r, 48, 4))
	}
	horiz := db.CountMany(ts)
	db.BuildColumnIndex()
	vert := db.CountMany(ts)
	for i, T := range ts {
		want := naiveCount(db, T)
		if horiz[i] != want || vert[i] != want {
			t.Errorf("CountMany %v: horizontal %d vertical %d want %d", T, horiz[i], vert[i], want)
		}
	}
}

// FuzzCountPaths fuzzes database shape, density and contents,
// asserting path agreement on a handful of derived itemsets and a
// word-for-word match of the column arena against the scatter oracle.
// The density is pct/255, so both the empty and the full database are
// reachable.
func FuzzCountPaths(f *testing.F) {
	f.Add(uint64(1), 10, 10, uint8(64))
	f.Add(uint64(2), 0, 65, uint8(64))
	f.Add(uint64(3), 100, 63, uint8(64))
	f.Add(uint64(4), 7, 129, uint8(64))
	f.Add(uint64(5), 65, 130, uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n, d int, pct uint8) {
		if n < 0 || n > 300 || d < 1 || d > 200 {
			t.Skip()
		}
		r := rng.New(seed)
		db := GenUniform(r, n, d, float64(pct)/255)
		var ts []Itemset
		ts = append(ts, MustItemset())
		for q := 0; q < 6; q++ {
			ts = append(ts, randomItemset(r, d, 10))
		}
		want := make([]int, len(ts))
		for i, T := range ts {
			want[i] = naiveCount(db, T)
		}
		for i, T := range ts {
			if got := db.ScanCount(T, 4); got != want[i] {
				t.Fatalf("scan %v = %d, want %d", T, got, want[i])
			}
		}
		checkColumnArena(t, db)
		for i, T := range ts {
			if got := db.Count(T); got != want[i] {
				t.Fatalf("vertical %v = %d, want %d", T, got, want[i])
			}
		}
	})
}
