package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// client posts to one server over at most conns keep-alive connections
// and counts every attempted and failed operation.
type client struct {
	base string
	hc   *http.Client
	ops  *tally
}

func newClient(base string, conns int, ops *tally) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		ops: ops,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and returns its latency — from the call until
// the whole response body is read — and the body. Any status but 200 or
// an X-Shards-Answered other than 8/8 is an error.
func (c *client) post(path string, body []byte) (time.Duration, []byte, error) {
	return c.send(path, body, "")
}

// send is post with an X-Bench-Req header when benchReq is not empty:
// the traced run keys its handler spans by it.
func (c *client) send(path string, body []byte, benchReq string) (time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if benchReq != "" {
		req.Header.Set("X-Bench-Req", benchReq)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	el := time.Since(start)
	if err != nil {
		return el, nil, fmt.Errorf("%s: read body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return el, data, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if got := resp.Header.Get("X-Shards-Answered"); got != "8/8" {
		return el, data, fmt.Errorf("%s: X-Shards-Answered %q, want 8/8", path, got)
	}
	return el, data, nil
}

// getStats reads the server's runtime and merge-build counters.
func (c *client) getStats() (serverStats, error) {
	var st serverStats
	resp, err := c.hc.Get(c.base + "/bench/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/bench/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tally counts operations and their failures; the first few failures
// are printed to standard error.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err != nil {
		if t.failed.Add(1) <= 5 {
			fmt.Fprintln(os.Stderr, "svcbench: failed op:", err)
		}
	}
}

// The checks below verify each answer against the exact figures the
// benchmark computes from the rows it generated.

func checkIngest(data []byte) error {
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("ingest: decode: %w", err)
	}
	if r.Accepted != batchRows {
		return fmt.Errorf("ingest: accepted %d rows, want %d", r.Accepted, batchRows)
	}
	return nil
}

// checkEstimate verifies that the estimate of every pool itemset in idx
// lies within ε of its exact frequency after n ingested batches, and
// returns the absolute errors.
func (in *inputs) checkEstimate(data []byte, idx []int, n int64, window bool) ([]float64, error) {
	var r struct {
		Estimates []float64 `json:"estimates"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("estimate: decode: %w", err)
	}
	if len(r.Estimates) != len(idx) {
		return nil, fmt.Errorf("estimate: %d answers for %d itemsets", len(r.Estimates), len(idx))
	}
	errs := make([]float64, len(idx))
	for j, q := range idx {
		exact := in.exactFreq(q, n)
		if window {
			exact = in.windowFreq(q, n)
		}
		errs[j] = math.Abs(r.Estimates[j] - exact)
		if !(errs[j] <= epsilon) {
			return errs, fmt.Errorf("estimate (window=%v): itemset %v estimated %.4f, exact %.4f",
				window, attrsOf(in.itemsets[q]), r.Estimates[j], exact)
		}
	}
	return errs, nil
}

// checkMine verifies the planted 3-itemset is mined with a frequency
// within ε of exact.
func (in *inputs) checkMine(data []byte, n int64) error {
	var r struct {
		Results []struct {
			Attrs []int   `json:"attrs"`
			Freq  float64 `json:"freq"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("mine: decode: %w", err)
	}
	want := in.exactFreq(0, n) // itemset 0 is the planted triple
	for _, res := range r.Results {
		if maskOf(res.Attrs) == in.itemsets[0] && len(res.Attrs) == 3 {
			if math.Abs(res.Freq-want) > epsilon {
				return fmt.Errorf("mine: planted %v at %.4f, exact %.4f", res.Attrs, res.Freq, want)
			}
			return nil
		}
	}
	return fmt.Errorf("mine: planted itemset %v missing from %d results", in.planted, len(r.Results))
}

// checkHeavyHitters verifies every planted item is reported heavy.
func (in *inputs) checkHeavyHitters(data []byte) error {
	var r struct {
		Items []struct {
			Item int `json:"item"`
		} `json:"items"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("heavyhitters: decode: %w", err)
	}
	var got uint64
	for _, it := range r.Items {
		if it.Item >= 0 && it.Item < numAttrs {
			got |= 1 << it.Item
		}
	}
	if got&in.itemsets[0] != in.itemsets[0] {
		return fmt.Errorf("heavyhitters: planted items %v not all in %v", in.planted, attrsOf(got))
	}
	return nil
}

// loop is one closed-loop phase: conns workers each take the next op
// index when their previous op completes, until n ops have run.
type loop struct {
	lat  []time.Duration // per op index
	wall time.Duration   // from the first op's start to the last op's end
}

func closedLoop(conns, n int, do func(i int) time.Duration) *loop {
	l := &loop{lat: make([]time.Duration, n)}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				l.lat[i] = do(i)
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	return l
}

// latencies returns the latencies of the ops keep selects, in ms.
func (l *loop) latencies(keep func(op int) bool) []float64 {
	var out []float64
	for i, d := range l.lat {
		if keep(i) {
			out = append(out, ms(d))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
