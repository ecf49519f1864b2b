package main

// serve-churn: real HTTP over loopback through internal/server to a
// mutable, sharded ftv engine that cold-starts from a snapshot file written
// before timing begins. One reader connection runs a closed loop of
// streamed /query?stream=1 requests over a Zipf-skewed query list, so the
// server's result cache gets hits; one writer connection issues POST
// /graphs and DELETE /graphs/{h} in turn, one mutation per ReadsPerWrite
// reads, which keeps the dataset size constant and bumps the epoch (and so
// invalidates every cached answer) with every write. Pacing by the
// reader's progress rather than by the clock keeps the hit share the same
// in every round however fast the host runs, and every write is timed
// inside its round, so the write path weighs on throughput_qps.
//
// In serve-churn each write is issued at its paced position in the read
// sequence, between two reads. serve-churn-overlap (not a workload of
// BENCHMARK.json) runs the writer beside the reader instead, every read
// using the result cache; it reports correct=false while the engine bumps
// its epoch before it swaps in that epoch's index state, because a cached
// read whose key is derived in between files the old epoch's answer under
// the new epoch's key.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

const (
	// churnSetups is how many cold starts set-up runs; setup_s is the
	// median.
	churnSetups = 9
	// churnRoundWrites is how many writes one round of reads owes: a
	// round is churnRoundWrites × ReadsPerWrite reads.
	churnRoundWrites = 4
	// overlapPaceDiv makes serve-churn-overlap write this many times more
	// often than serve-churn, so that a read lands beside a write often.
	overlapPaceDiv = 10
)

// serving is one cold-started engine behind a loopback HTTP listener.
type serving struct {
	eng  *psi.Engine
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	base string
}

// coldStart loads the engine from the snapshot and starts serving it,
// returning once /healthz answers.
func coldStart(snapPath string) (*serving, error) {
	// A mutable snapshot must be opened with Mutable set, although the
	// EngineOptions.Snapshot doc says the field may be left zero.
	eng, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: snapPath, Mutable: true})
	if err != nil {
		return nil, fmt.Errorf("loading the snapshot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &serving{eng: eng, srv: server.New(eng, server.Options{}), done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := http.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serving) close() {
	_ = s.hs.Close() // drops idle connections; in-flight ones are done by now
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // every request has completed, so this drains nothing
	s.eng.Close()
}

// oneConnClient returns an HTTP client that uses one keep-alive connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// readResult is one streamed /query response as the client saw it.
type readResult struct {
	ids          []int
	first, total time.Duration
	cached       bool
	failed       bool
}

// streamLine is one NDJSON line of a streamed containment answer: a graph
// ID line or the summary.
type streamLine struct {
	GraphID *int `json:"graph_id"`
	server.StreamSummary
}

// streamQuery posts body to /query?stream=1 and reads the NDJSON answer.
func streamQuery(c *http.Client, base string, body []byte) readResult {
	t0 := time.Now()
	resp, err := c.Post(base+"/query?stream=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		return readResult{failed: true}
	}
	defer resp.Body.Close()
	r := readResult{failed: true}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return r
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && r.first == 0 {
			r.first = time.Since(t0)
		}
		if err != nil {
			return readResult{failed: true} // the stream ended without a summary
		}
		var l streamLine
		if json.Unmarshal(line, &l) != nil {
			return readResult{failed: true}
		}
		if l.GraphID != nil {
			r.ids = append(r.ids, *l.GraphID)
			continue
		}
		if _, err := io.Copy(io.Discard, br); err != nil {
			return readResult{failed: true}
		}
		r.total = time.Since(t0)
		r.cached = l.Cached
		r.failed = !l.Done || l.Killed || l.Error != ""
		return r
	}
}

// churnWrite is one mutation as the writer saw it: when it was sent, when
// its response arrived, and the dataset the model says it produced.
type churnWrite struct {
	start, end time.Time
	lat        time.Duration
	epoch      uint64
	state      []*graph.Graph
	failed     bool
}

// writer applies mutations over HTTP (or, with srv set, through
// ServeHTTP into an in-memory recorder) and keeps the independent model of
// the dataset: live graphs in insertion order, which is the dense graph-ID
// order of every epoch.
type writer struct {
	c       *http.Client
	base    string
	srv     *server.Server
	pool    []*graph.Graph
	next    int
	adding  bool
	live    []*graph.Graph
	handles []psi.GraphHandle
	log     []churnWrite
}

// step issues the next mutation: an ingest of the next pool graph, then a
// delete of the oldest live graph, and so on.
func (w *writer) step() {
	rec := churnWrite{start: time.Now()}
	var err error
	if w.adding = !w.adding; w.adding {
		g := w.pool[w.next%len(w.pool)]
		w.next++
		var resp server.IngestResponse
		if err = w.do(http.MethodPost, "/graphs", graphBytes(g), &resp); err == nil && len(resp.Handles) != 1 {
			err = fmt.Errorf("ingest returned %d handles", len(resp.Handles))
		}
		if err == nil {
			w.live = append(w.live, g)
			w.handles = append(w.handles, resp.Handles[0])
			rec.epoch = resp.Epoch
		}
	} else {
		var resp server.MutateResponse
		err = w.do(http.MethodDelete, "/graphs/"+strconv.FormatInt(int64(w.handles[0]), 10), nil, &resp)
		if err == nil {
			w.live = slices.Delete(w.live, 0, 1)
			w.handles = slices.Delete(w.handles, 0, 1)
			rec.epoch = resp.Epoch
		}
	}
	rec.end = time.Now()
	rec.lat = rec.end.Sub(rec.start)
	rec.failed = err != nil
	rec.state = slices.Clone(w.live)
	w.log = append(w.log, rec)
}

func (w *writer) do(method, path string, body []byte, out any) error {
	var (
		status int
		b      []byte
	)
	if w.srv != nil {
		rec := httptest.NewRecorder()
		w.srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		status, b = rec.Code, rec.Body.Bytes()
	} else {
		req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := w.c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if b, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		status = resp.StatusCode
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, b)
	}
	return json.Unmarshal(b, out)
}

// failures counts the writes that failed.
func (w *writer) failures() int64 {
	n := int64(0)
	for _, wr := range w.log {
		if wr.failed {
			n++
		}
	}
	return n
}

// churnRead is one timed read, kept for the epoch-aware check.
type churnRead struct {
	q          int
	start, end time.Time
	res        readResult
}

// runChurn runs serve-churn; with overlap set, the writer runs beside the
// reader rather than between its reads.
func runChurn(seed int64, seconds float64, shs shapes, overlap bool) (*report, error) {
	sh := shs.churn
	in := makeChurnInputs(seed, sh)
	dir, err := os.MkdirTemp(".", "perfbench-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "engine.snap")
	if err := writeChurnSnapshot(in, sh, snapPath); err != nil {
		return nil, err
	}
	rep := newReport()
	s, setup, err := setUp(churnSetups, func() (*serving, error) { return coldStart(snapPath) }, (*serving).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.Metrics.set("setup_s", setup, "s")
	rep.Metrics.set("heap_mb", liveHeapMB(), "MiB")
	if fi, err := os.Stat(snapPath); err == nil {
		rep.note("snapshot_mb %.6f MiB (serve-churn only, outside the result)", float64(fi.Size())/(1<<20))
	}

	w := &writer{c: oneConnClient(), base: s.base, pool: in.Pool, live: slices.Clone(in.DS), handles: s.eng.Handles()}
	if len(w.handles) != len(in.DS) {
		return nil, fmt.Errorf("cold-started engine has %d handles, dataset has %d graphs", len(w.handles), len(in.DS))
	}
	reader := oneConnClient()
	// Warm-up: one pass over the distinct queries, untimed and unchecked.
	for _, b := range in.Bodies {
		streamQuery(reader, s.base, b)
	}
	liveHeapMB()

	// write issues the next paced mutation and endRound waits until the
	// round's writes have completed, so that every write is timed inside
	// the round that owes it.
	write, endRound := w.step, func() {}
	if overlap {
		tokens, acks := make(chan struct{}, churnRoundWrites), make(chan struct{}, churnRoundWrites)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range tokens {
				w.step()
				acks <- struct{}{}
			}
		}()
		defer func() {
			close(tokens)
			wg.Wait()
		}()
		write = func() { tokens <- struct{}{} }
		endRound = func() {
			for range churnRoundWrites {
				<-acks
			}
		}
	}
	st := &loopStats{}
	var reads []churnRead
	pace := sh.ReadsPerWrite
	if overlap {
		pace = max(1, pace/overlapPaceDiv)
	}
	roundReads := churnRoundWrites * pace
	start := time.Now()
	pos := 0
	for {
		t0 := time.Now()
		for k := 0; k < roundReads; k++ {
			qi := in.Seq[pos%len(in.Seq)]
			pos++
			rs := time.Now()
			res := streamQuery(reader, s.base, in.Bodies[qi])
			reads = append(reads, churnRead{q: qi, start: rs, end: time.Now(), res: res})
			if pos%pace == 0 {
				write()
			}
		}
		endRound()
		st.roundDurs = append(st.roundDurs, time.Since(t0))
		st.roundOps = append(st.roundOps, roundReads)
		if time.Since(start).Seconds() >= seconds && len(reads) >= samplesFor(tailQuantile) {
			break
		}
	}

	hits := 0
	for _, r := range reads {
		st.attempted++
		if r.res.failed {
			st.failed++
			continue
		}
		if r.res.cached {
			hits++
		}
		st.first = append(st.first, r.res.first)
		st.total = append(st.total, r.res.total)
	}
	var muts []time.Duration
	for _, wr := range w.log {
		st.attempted++
		if wr.failed {
			st.failed++
			continue
		}
		muts = append(muts, wr.lat)
	}
	if err := checkChurn(in, w, reads, s, reader, st); err != nil {
		return nil, err
	}
	rep.fromLoop(st)
	if err := st.latencyMetrics(rep.Metrics); err != nil {
		return nil, err
	}
	for _, p := range []float64{0.5, 0.9} {
		if v, err := percentile(muts, p); err == nil {
			rep.note("mutation_p%.0f_ms %.4f ms (serve-churn only, outside the result)", p*100, ms(v))
		}
	}
	rep.note("serve-churn: %d graphs, %d distinct queries, %d reads (%.3f cached), %d writes (beside the reads: %v), %d rounds",
		len(in.DS), len(in.Queries), len(reads), float64(hits)/float64(len(reads)), len(w.log), overlap, len(st.roundOps))
	return rep, nil
}

// writeChurnSnapshot builds the mutable engine once and persists it: the
// file every cold start of the run loads.
func writeChurnSnapshot(in churnInputs, sh churnShape, path string) error {
	eng, err := psi.NewDatasetEngine(in.DS, psi.EngineOptions{Indexes: []string{"ftv"}, Shards: sh.Shards, Mutable: true})
	if err != nil {
		return fmt.Errorf("building the serve-churn engine: %w", err)
	}
	defer eng.Close()
	return eng.SaveSnapshot(path)
}

// epochWindow returns the states lo..hi a read spanning [start, end] could
// have seen: state j exists from some instant of write j (log[j-1]; state
// 0 from the start) until some instant of write j+1, so j qualifies when
// write j started before the read ended and write j+1 ended after the read
// started. The single writer's log is in time order.
func epochWindow(log []churnWrite, start, end time.Time) (lo, hi int) {
	hi = sort.Search(len(log), func(k int) bool { return log[k].start.After(end) })
	lo = sort.Search(len(log), func(k int) bool { return !log[k].end.Before(start) })
	return lo, hi
}

// checkChurn checks every read against brute force over the dataset of
// each epoch its span could have seen, then every distinct query against
// brute force over the final dataset. The NDJSON summary carries no
// epoch, so the single writer's log supplies them: write j (1-based)
// turned state j-1 into state j at some instant between its start and its
// end.
func checkChurn(in churnInputs, w *writer, reads []churnRead, s *serving, reader *http.Client, st *loopStats) error {
	states := make([][]*graph.Graph, 0, len(w.log)+1)
	states = append(states, in.DS)
	for _, wr := range w.log {
		if wr.failed {
			return errors.New("a write failed, so later epochs are unknown")
		}
		states = append(states, wr.state)
	}
	for j := 1; j < len(w.log); j++ {
		if w.log[j].epoch != w.log[j-1].epoch+1 {
			st.addWrong(fmt.Errorf("write %d reported epoch %d after %d", j, w.log[j].epoch, w.log[j-1].epoch))
		}
	}
	c := newContainment()
	var memoMu sync.Mutex
	memo := map[[2]int][]int{}
	answerAt := func(q, j int) ([]int, error) {
		memoMu.Lock()
		a, ok := memo[[2]int{q, j}]
		memoMu.Unlock()
		if ok {
			return a, nil
		}
		a, err := c.answer(in.Queries[q], states[j])
		if err != nil {
			return nil, err
		}
		memoMu.Lock()
		memo[[2]int{q, j}] = a
		memoMu.Unlock()
		return a, nil
	}
	errs := make([]error, len(reads))
	wrong := make([]error, len(reads))
	parallelFor(len(reads), func(i int) {
		r := reads[i]
		if r.res.failed {
			return
		}
		lo, hi := epochWindow(w.log, r.start, r.end)
		var seen [][]int
		for j := lo; j <= hi; j++ {
			a, err := answerAt(r.q, j)
			if err != nil {
				errs[i] = err
				return
			}
			if slices.Equal(a, r.res.ids) {
				return
			}
			seen = append(seen, a)
		}
		wrong[i] = fmt.Errorf("read %d of query %d returned %v; brute force over epochs %d..%d says %v", i, r.q, r.res.ids, lo, hi, seen)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, err := range wrong {
		if err != nil {
			st.addWrong(err)
		}
	}
	final := states[len(states)-1]
	got := s.eng.Dataset()
	if len(got) != len(final) || !slices.EqualFunc(got, final, func(a, b *graph.Graph) bool { return a.Equal(b) }) {
		st.addWrong(errors.New("the engine's final dataset differs from the writer's model"))
	}
	for qi, b := range in.Bodies {
		res := streamQuery(reader, s.base, b)
		want, err := c.answer(in.Queries[qi], final)
		if err != nil {
			return err
		}
		if res.failed || !slices.Equal(res.ids, want) {
			st.addWrong(fmt.Errorf("final read of query %d returned %v (failed %v); brute force says %v", qi, res.ids, res.failed, want))
		}
	}
	return nil
}
