package dataset

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// scatterColumnArena is the reference column-index build: one OR per
// set bit, scattering each row's ones into their column words. It is
// the oracle the blocked-transpose BuildColumnIndex must match word for
// word.
func scatterColumnArena(db *Database) []uint64 {
	cs := wordsFor(db.n)
	arena := make([]uint64, db.d*cs)
	for r := 0; r < db.n; r++ {
		rowBit := uint64(1) << (uint(r) & 63)
		rowWord := r >> 6
		for wi, w := range db.RowWords(r) {
			for w != 0 {
				a := wi*wordBits + bits.TrailingZeros64(w)
				arena[a*cs+rowWord] |= rowBit
				w &= w - 1
			}
		}
	}
	return arena
}

// checkColumnArena builds db's column index and compares the whole
// arena against the scatter oracle, then asserts that no column word
// carries a bit at or past row n.
func checkColumnArena(t *testing.T, db *Database) {
	t.Helper()
	want := scatterColumnArena(db)
	db.BuildColumnIndex()
	if len(db.colArena) != len(want) {
		t.Fatalf("column arena holds %d words, want %d", len(db.colArena), len(want))
	}
	if db.colStride != wordsFor(db.n) {
		t.Fatalf("column stride %d, want %d", db.colStride, wordsFor(db.n))
	}
	for i, w := range want {
		if got := db.colArena[i]; got != w {
			t.Fatalf("column %d word %d = %#x, want %#x", i/max(db.colStride, 1), i%max(db.colStride, 1), got, w)
		}
	}
	if tail := db.n % wordBits; tail != 0 {
		pad := ^uint64(0) << uint(tail)
		for a := 0; a < db.d; a++ {
			if w := db.colWords(a)[db.colStride-1]; w&pad != 0 {
				t.Fatalf("column %d has padding bits %#x set past row %d", a, w&pad, db.n)
			}
		}
	}
	for a := 0; a < db.d; a++ {
		if got, want := db.AttrColumn(a).Len(), db.n; got != want {
			t.Fatalf("column %d view length %d, want %d", a, got, want)
		}
	}
}

// TestBuildColumnIndexMatchesScatter pins the blocked 64×64 transpose
// to the per-set-bit scatter across block edges (n around 64 and 4096),
// row strides 1–3 with and without a d mod 64 tail, and densities from
// empty to full.
func TestBuildColumnIndexMatchesScatter(t *testing.T) {
	ns := []int{0, 1, 63, 64, 65, 4097}
	ds := []int{1, 63, 64, 65, 130}
	densities := []float64{0, 0.08, 0.5, 1}
	seed := uint64(1)
	for _, n := range ns {
		for _, d := range ds {
			for _, p := range densities {
				seed++
				r := rng.New(seed)
				t.Run(fmt.Sprintf("n%d_d%d_p%g", n, d, p), func(t *testing.T) {
					checkColumnArena(t, GenUniform(r, n, d, p))
				})
			}
		}
	}
}

// TestBuildColumnIndexRebuild checks that an index built, invalidated
// by appends and rebuilt matches the oracle on the grown database.
func TestBuildColumnIndexRebuild(t *testing.T) {
	r := rng.New(7)
	db := GenUniform(r, 100, 70, 0.3)
	checkColumnArena(t, db)
	db.AppendDatabase(GenUniform(r, 29, 70, 0.6))
	if db.HasColumnIndex() {
		t.Fatal("AppendDatabase must invalidate the column index")
	}
	checkColumnArena(t, db)
}

func TestTranspose64(t *testing.T) {
	r := rng.New(64)
	var x, orig [wordBits]uint64
	for i := range x {
		x[i] = r.Uint64()
	}
	orig = x
	transpose64(&x)
	for i := 0; i < wordBits; i++ {
		for j := 0; j < wordBits; j++ {
			if got, want := x[j]>>uint(i)&1, orig[i]>>uint(j)&1; got != want {
				t.Fatalf("bit (%d,%d) = %d, want %d", j, i, got, want)
			}
		}
	}
	transpose64(&x)
	if x != orig {
		t.Fatal("transposing twice must restore the matrix")
	}
}

// BenchmarkBuildColumnIndex times the cold build at the service's shard
// shape (4096 sampled rows) across densities and one three-word stride.
func BenchmarkBuildColumnIndex(b *testing.B) {
	for _, c := range []struct {
		d int
		p float64
	}{{64, 0.08}, {64, 0.5}, {130, 0.08}} {
		db := GenUniform(rng.New(1), 4096, c.d, c.p)
		b.Run(fmt.Sprintf("d%d_p%g", c.d, c.p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.BuildColumnIndex()
			}
		})
		b.Run(fmt.Sprintf("scatter_d%d_p%g", c.d, c.p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scatterColumnArena(db)
			}
		})
	}
}
