package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/rng"
)

// The generated stream is a market basket: every attribute of the
// universe is present independently with probability density, and a
// planted 3-itemset joins plantRate of the rows. Rows are held as
// uint64 masks (numAttrs is 64), so exact itemset counts are one AND
// per row.
const (
	numAttrs   = 64
	batchRows  = 256
	density    = 0.08
	plantRate  = 0.30
	poolSize   = 1024 // distinct batches; 1024×256 rows = 8 shards × the 32768-row window
	queryPool  = 256  // distinct itemsets the estimate requests draw from
	perRequest = 64   // itemsets per /v1/estimate request
	reqPool    = 512  // distinct estimate request bodies
	querySkew  = 1.1  // Zipf exponent of the itemset choice within a request
	attrSkew   = 0.8  // Zipf exponent of the attribute choice when drawing itemsets
	minSupport = 0.2  // mine threshold: only the planted lattice clears it
	mineMaxK   = 3
	hhPhi      = 0.05 // heavy-hitter threshold: only the planted items clear it
	epsilon    = 0.05 // the service's configured ε
)

// inputs is everything a workload sends, derived from the seed alone.
type inputs struct {
	seed    uint64
	planted [3]int
	rows    [poolSize][batchRows]uint64 // row masks per batch
	bodies  [poolSize][]byte            // /v1/ingest bodies

	itemsets [queryPool]uint64 // itemset masks
	// batchCount[b][q] is how many rows of batch b contain itemset q;
	// prefix sums over it give the exact frequency of any batch range.
	batchCount [poolSize][queryPool]int32
	poolCount  [queryPool]int64

	requests [reqPool][]int // itemset indices per estimate request
	reqBody  [reqPool][]byte
	winBody  [reqPool][]byte // the same requests with "window":true
}

func newInputs(seed uint64) *inputs {
	in := &inputs{seed: seed}
	r := rng.New(seed)
	perm := r.Perm(numAttrs)
	copy(in.planted[:], perm[:3])
	sort.Ints(in.planted[:])
	plantMask := maskOf(in.planted[:])

	for b := 0; b < poolSize; b++ {
		br := rng.New(seed ^ (0x9e3779b97f4a7c15 * uint64(b+1)))
		rows := make([][]int, batchRows)
		for i := range in.rows[b] {
			var m uint64
			for a := 0; a < numAttrs; a++ {
				if br.Bernoulli(density) {
					m |= 1 << a
				}
			}
			if br.Bernoulli(plantRate) {
				m |= plantMask
			}
			in.rows[b][i] = m
			rows[i] = attrsOf(m)
		}
		in.bodies[b] = mustJSON(map[string]any{"rows": rows})
	}

	// The itemset pool: the planted triple and its pairs, then pairs and
	// triples over a Zipf-skewed attribute order, all distinct.
	seen := map[uint64]bool{}
	add := func(m uint64) {
		if !seen[m] {
			seen[m] = true
			in.itemsets[len(seen)-1] = m
		}
	}
	add(plantMask)
	for i := 0; i < 3; i++ {
		add(plantMask &^ (1 << in.planted[i]))
	}
	az := rng.NewZipf(r, numAttrs, attrSkew)
	for len(seen) < queryPool {
		size := 2 + r.Intn(2)
		var m uint64
		for bits.OnesCount64(m) < size {
			m |= 1 << perm[az.Next()]
		}
		add(m)
	}

	for b := range in.rows {
		for q, t := range in.itemsets {
			var c int32
			for _, row := range in.rows[b] {
				if row&t == t {
					c++
				}
			}
			in.batchCount[b][q] = c
			in.poolCount[q] += int64(c)
		}
	}

	qz := rng.NewZipf(r, queryPool, querySkew)
	for i := range in.requests {
		idx := make([]int, perRequest)
		sets := make([][]int, perRequest)
		for j := range idx {
			idx[j] = qz.Next()
			sets[j] = attrsOf(in.itemsets[idx[j]])
		}
		in.requests[i] = idx
		in.reqBody[i] = mustJSON(map[string]any{"itemsets": sets})
		in.winBody[i] = mustJSON(map[string]any{"itemsets": sets, "window": true})
	}
	return in
}

// exactFreq returns itemset q's frequency over the first n batches of
// the cyclic stream (batch i is pool batch i mod poolSize).
func (in *inputs) exactFreq(q int, n int64) float64 {
	if n <= 0 {
		return 0
	}
	full, part := n/poolSize, int(n%poolSize)
	c := full * in.poolCount[q]
	for b := 0; b < part; b++ {
		c += int64(in.batchCount[b][q])
	}
	return float64(c) / float64(n*batchRows)
}

// windowFreq returns itemset q's frequency over the trailing poolSize
// batches once at least that many were ingested: a whole pool cycle in
// some rotation, so exactly the pool frequency. Each shard's window
// spans 7/8 to 8/8 of its share of those rows (bucket granularity);
// the stream is i.i.d., so the difference is sampling noise far below ε.
func (in *inputs) windowFreq(q int, n int64) float64 {
	if n < poolSize {
		return in.exactFreq(q, n)
	}
	return float64(in.poolCount[q]) / float64(poolSize*batchRows)
}

func maskOf(attrs []int) uint64 {
	var m uint64
	for _, a := range attrs {
		m |= 1 << a
	}
	return m
}

func attrsOf(m uint64) []int {
	out := make([]int, 0, bits.OnesCount64(m))
	for m != 0 {
		out = append(out, bits.TrailingZeros64(m))
		m &= m - 1
	}
	return out
}

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("encode generated input: %v", err))
	}
	return buf.Bytes()
}
