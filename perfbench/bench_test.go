package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/vf2"
)

func TestContainOracleRejectsDroppedID(t *testing.T) {
	in := makeContainInputs(3, containSmoke)
	want, err := newContainment().answers(in.Queries, in.DS)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, w := range want {
		if err := checkContainAnswer(w, w, in.Sources[i]); err != nil {
			t.Fatalf("query %d: brute force rejects itself: %v", i, err)
		}
		if len(w) < 2 {
			continue
		}
		checked++
		for drop := range w {
			got := slices.Delete(slices.Clone(w), drop, drop+1)
			if checkContainAnswer(got, w, -1) == nil {
				t.Errorf("query %d: answer %v with ID %d dropped passes", i, got, w[drop])
			}
		}
		dup := append(slices.Clone(w), w[len(w)-1])
		if checkContainAnswer(dup, dup, -1) == nil {
			t.Errorf("query %d: answer %v with a duplicate passes", i, dup)
		}
		desc := slices.Clone(w)
		slices.Reverse(desc)
		if checkContainAnswer(desc, desc, -1) == nil {
			t.Errorf("query %d: descending answer %v passes", i, desc)
		}
	}
	if checked == 0 {
		t.Fatal("no query has two or more containing graphs; the test checks nothing")
	}
	// An answer that misses the query's own source graph is wrong even
	// when the expected answer agrees with it.
	for i, src := range in.Sources {
		if src >= 0 {
			if checkContainAnswer(nil, nil, src) == nil {
				t.Errorf("query %d: empty answer passes although graph %d is its source", i, src)
			}
			break
		}
	}
}

func TestEmbedOracleRejectsCorruptedEmbedding(t *testing.T) {
	in := makeEmbedInputs(3, embedSmoke)
	q := in.Queries[0]
	embs, err := vf2.New(in.G).Match(context.Background(), q, in.Limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(embs) < 2 {
		t.Fatalf("want at least 2 embeddings to corrupt, got %d", len(embs))
	}
	n, err := embedCount(in.G, q, in.Limit)
	if err != nil || n != len(embs) {
		t.Fatalf("embedCount = %d, %v; want %d", n, err, len(embs))
	}
	if err := checkEmbeddings(q, in.G, embs, n); err != nil {
		t.Fatalf("VF2's own embeddings rejected: %v", err)
	}
	corrupt := slices.Clone(embs)
	bad := slices.Clone(corrupt[0])
	bad[0] = (bad[0] + 1) % int32(in.G.N())
	corrupt[0] = bad
	if checkEmbeddings(q, in.G, corrupt, n) == nil {
		t.Error("a corrupted embedding passes")
	}
	dup := slices.Clone(embs)
	dup[1] = dup[0]
	if checkEmbeddings(q, in.G, dup, n) == nil {
		t.Error("a duplicated embedding passes")
	}
	if checkEmbeddings(q, in.G, embs[1:], n) == nil {
		t.Error("an answer one embedding short passes")
	}
}

func TestPercentileRule(t *testing.T) {
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
	if got := samplesFor(0.9); got != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	if v, err := percentile(ds, 0.99); err != nil || v != 990*time.Millisecond {
		t.Errorf("p99 of 1..1000 ms = %v, %v; want 990ms", v, err)
	}
	if _, err := percentile(ds[:999], 0.99); err == nil {
		t.Error("p99 over 999 samples is reported")
	}
}

func TestRoundRateIsMedianOverRounds(t *testing.T) {
	ops := []int{100, 100, 100, 100, 100}
	durs := []time.Duration{time.Second, time.Second, 10 * time.Second, time.Second, 2 * time.Second}
	if got := roundRate(ops, durs); got != 100 {
		t.Errorf("roundRate = %g, want 100: one slow round must not move the median", got)
	}
	if got := roundRate([]int{10, 30}, []time.Duration{time.Second, time.Second}); got != 20 {
		t.Errorf("roundRate over two rounds = %g, want their mean 20", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestEpochWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	log := []churnWrite{
		{start: at(10), end: at(20)}, // write 1: state 0 -> 1
		{start: at(40), end: at(50)}, // write 2: state 1 -> 2
	}
	for _, c := range []struct {
		start, end int
		lo, hi     int
	}{
		{0, 5, 0, 0},   // before any write: only the initial state
		{5, 15, 0, 1},  // overlaps write 1
		{22, 38, 1, 1}, // between writes: exactly one state
		{15, 45, 0, 2}, // overlaps both writes
		{55, 60, 2, 2}, // after the last write
	} {
		lo, hi := epochWindow(log, at(c.start), at(c.end))
		if lo != c.lo || hi != c.hi {
			t.Errorf("read [%d,%d]ms: states %d..%d, want %d..%d", c.start, c.end, lo, hi, c.lo, c.hi)
		}
	}
}

// TestSmoke runs every workload and the traced run end to end on small
// inputs with all checks on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes tens of seconds")
	}
	t.Chdir(t.TempDir())
	rep, err := runSmoke(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("smoke: correct=%v attempted=%d failed=%d notes=%v", rep.Correct, rep.Attempted, rep.Failed, rep.notes)
	}
	for _, w := range workloadOrder {
		for _, name := range []string{"setup_s", "heap_mb", "throughput_qps", "query_p50_ms", "query_p90_ms", "first_result_p50_ms", "first_result_p90_ms"} {
			if v, ok := rep.Metrics[w+"."+name]; !ok || v.Value <= 0 {
				t.Errorf("%s.%s = %v (present %v), want a positive value", w, name, v.Value, ok)
			}
		}
	}
	if _, ok := rep.Metrics["trace.snapshot.load_ms"]; !ok {
		t.Error("the traced run reported no snapshot.load_ms")
	}
}
