package main

// The traced run: per-layer metrics, timed around calls into each layer's
// public functions from outside the program, on the inputs of all three
// workloads (so one traced run reports the whole per-layer table). Spans
// inside the program are later work; the names follow the stage names
// (plan, rewrite, filter, verify, write) the program's own tracing is to
// use. End-to-end metrics never come from this run.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/snapshot"
)

const (
	// traceContainQueries, traceEmbedQueries and traceChurnReads bound the
	// traced work of each workload.
	traceContainQueries = 240
	traceEmbedQueries   = 90
	traceChurnReads     = 3000
	// traceChurnWrites is how many add/remove pairs the live-store probe
	// applies.
	traceChurnWrites = 32
	// soloCap clamps a solo matcher attempt, as the paper's kill cap
	// clamps a straggler; a clamped attempt counts at the cap.
	soloCap = 500 * time.Millisecond
)

func runTrace(seed int64, sh shapes) (*report, error) {
	rep := newReport()
	for _, probe := range []func(int64, shapes, *report) error{traceContain, traceEmbed, traceChurn} {
		if err := probe(seed, sh, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// durs collects span durations.
type durs []time.Duration

func (d *durs) since(t0 time.Time) { *d = append(*d, time.Since(t0)) }

// timed runs f and returns its duration.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// traceContain probes internal/index, internal/core and psi on the
// contain-race inputs.
func traceContain(seed int64, sh shapes, rep *report) error {
	in := makeContainInputs(seed, sh.contain)
	qs := in.Queries[:min(len(in.Queries), traceContainQueries)]
	want, err := newContainment().answers(qs, in.DS)
	if err != nil {
		return err
	}
	ctx := context.Background()
	m := rep.Metrics
	xs := make([]index.Index, len(raceKinds))
	kindOf := map[string]string{}
	solo := make([][]time.Duration, len(raceKinds)) // [kind][query]
	for k, kind := range raceKinds {
		var x index.Index
		d := timed(func() { x, err = index.Build(ctx, kind, in.DS, index.Options{}) })
		if err != nil {
			return fmt.Errorf("building %s: %w", kind, err)
		}
		defer x.Close()
		xs[k] = x
		kindOf[x.Name()] = kind
		m.set("index.build_s."+kind, d.Seconds(), "s")
		m.set("index.features."+kind, float64(x.Stats().Features), "count")
		var filter, verify durs
		cands, answers := 0, 0
		for qi, q := range qs {
			t0 := time.Now()
			c := x.Filter(q)
			filter.since(t0)
			cands += len(c)
			t0 = time.Now()
			for _, id := range c {
				ok, err := x.Verify(ctx, q, id)
				if err != nil {
					return fmt.Errorf("%s verify: %w", kind, err)
				}
				if ok {
					answers++
				}
			}
			verify.since(t0)
			var ids []int
			d := timed(func() { ids, err = index.Answer(ctx, x, q, nil) })
			if err != nil {
				return fmt.Errorf("%s answer: %w", kind, err)
			}
			if err := checkContainAnswer(ids, want[qi], in.Sources[qi]); err != nil {
				rep.Correct = false
				rep.note("trace %s solo, query %d: %v", kind, qi, err)
			}
			solo[k] = append(solo[k], d)
		}
		m.set("index.filter_us."+kind, medianDuration(filter)*1e6, "us")
		m.set("index.verify_ms."+kind, medianDuration(verify)*1e3, "ms")
		m.set("index.solo_ms."+kind, medianDuration(solo[k])*1e3, "ms")
		m.set("index.candidates."+kind, float64(cands)/float64(len(qs)), "count")
		m.set("index.precision."+kind, float64(answers)/float64(max(1, cands)), "ratio")
		rep.Attempted += int64(len(qs))
	}
	racer := core.NewIndexRacer(xs, []rewrite.Kind{rewrite.Orig, rewrite.DND})
	defer racer.Close()
	var gaps []float64
	wins := map[string]int{}
	for qi, q := range qs {
		var res core.IndexRaceResult
		d := timed(func() { res, err = racer.Answer(ctx, q) })
		if err != nil {
			return fmt.Errorf("index race: %w", err)
		}
		if err := checkContainAnswer(res.GraphIDs, want[qi], in.Sources[qi]); err != nil {
			rep.Correct = false
			rep.note("trace index race, query %d: %v", qi, err)
		}
		fastest := solo[0][qi]
		for k := range raceKinds {
			fastest = min(fastest, solo[k][qi])
		}
		gaps = append(gaps, ms(d-fastest))
		wins[kindOf[res.Winner]]++
	}
	rep.Attempted += int64(len(qs))
	m.set("core.race_gap_ms.index", median(gaps), "ms")
	for _, kind := range raceKinds {
		m.set("core.wins."+kind, float64(wins[kind])/float64(len(qs)), "share")
	}

	eng, err := psi.NewDatasetEngine(in.DS, psi.EngineOptions{Indexes: raceKinds, Timeout: killCap})
	if err != nil {
		return err
	}
	defer eng.Close()
	var plan durs
	for _, q := range qs {
		t0 := time.Now()
		if _, err := eng.Plan(q); err != nil {
			return err
		}
		plan.since(t0)
		if _, err := eng.AnswerStreamResult(ctx, q, func(int) bool { return true }); err != nil {
			return err
		}
	}
	rep.Attempted += int64(len(qs))
	c := eng.Counters()
	m.set("psi.plan_us", medianDuration(plan)*1e6, "us")
	m.set("core.attempts_per_query", float64(c.IndexAttempts)/float64(max(1, c.Queries)), "count")
	return nil
}

// traceEmbed probes internal/rewrite, internal/match (through solo
// attempts) and the matcher race of internal/core on the embed-race
// inputs.
func traceEmbed(seed int64, sh shapes, rep *report) error {
	in := makeEmbedInputs(seed, sh.embed)
	qs := in.Queries[:min(len(in.Queries), traceEmbedQueries)]
	m := rep.Metrics
	freqs := rewrite.FrequenciesOf(in.G)
	for _, k := range []rewrite.Kind{rewrite.Orig, rewrite.DND} {
		var apply durs
		for _, q := range qs {
			t0 := time.Now()
			rewrite.Apply(q, freqs, k, 0)
			apply.since(t0)
		}
		m.set("rewrite.apply_us."+k.String(), medianDuration(apply)*1e6, "us")
	}
	eng, err := psi.NewEngine(in.G, psi.EngineOptions{})
	if err != nil {
		return err
	}
	defer eng.Close()
	attempts := eng.Attempts()
	racer := psi.NewRacer(in.G)
	// run races attempts to the limit, returning the time to the first
	// embedding (or to completion when there is none), the time to the
	// end, and the winner; a run past limit is clamped to it.
	run := func(q *graph.Graph, as []psi.Attempt, limit time.Duration) (first, total time.Duration, winner string, n int, err error) {
		ctx, cancel := context.WithTimeout(context.Background(), limit)
		defer cancel()
		t0 := time.Now()
		res, err := racer.RaceStream(ctx, q, in.Limit, as, psi.SinkFunc(func(psi.Embedding) bool {
			if first == 0 {
				first = time.Since(t0)
			}
			return true
		}))
		total = time.Since(t0)
		if ctx.Err() != nil {
			if first == 0 {
				first = limit
			}
			return first, limit, "", 0, nil
		}
		if err != nil {
			return 0, 0, "", 0, err
		}
		if first == 0 {
			first = total
		}
		return first, total, res.Winner.Label(), res.Found, nil
	}
	firsts := make([][]time.Duration, len(attempts))
	limits := make([][]time.Duration, len(attempts))
	var ratios, gaps []float64
	wins := map[string]int{}
	for _, q := range qs {
		fastFirst, fastLimit, slowLimit := soloCap, soloCap, time.Duration(0)
		for a := range attempts {
			f, t, _, _, err := run(q, attempts[a:a+1], soloCap)
			if err != nil {
				return fmt.Errorf("solo %s: %w", attempts[a].Label(), err)
			}
			firsts[a] = append(firsts[a], f)
			limits[a] = append(limits[a], t)
			fastFirst, fastLimit, slowLimit = min(fastFirst, f), min(fastLimit, t), max(slowLimit, t)
		}
		ratios = append(ratios, float64(slowLimit)/float64(max(fastLimit, time.Microsecond)))
		f, _, winner, n, err := run(q, attempts, killCap)
		if err != nil {
			return fmt.Errorf("matcher race: %w", err)
		}
		switch {
		case winner == "":
			rep.Failed++
		case n == 0:
			// Every query is extracted from the stored graph.
			rep.Correct = false
			rep.note("trace matcher race on %s found no embedding", q.Name())
		}
		gaps = append(gaps, ms(f-fastFirst))
		wins[winner]++
	}
	rep.Attempted += int64(len(qs) * (len(attempts) + 1))
	for a, at := range attempts {
		m.set("match.first_ms."+at.Label(), medianDuration(firsts[a])*1e3, "ms")
		m.set("match.limit_ms."+at.Label(), medianDuration(limits[a])*1e3, "ms")
		m.set("core.wins."+at.Label(), float64(wins[at.Label()])/float64(len(qs)), "share")
	}
	m.set("match.straggler_ratio_p50", median(ratios), "ratio")
	m.set("core.race_gap_ms.match", median(gaps), "ms")
	return nil
}

// traceChurn probes internal/snapshot, internal/live, internal/graph and
// internal/server on the serve-churn inputs.
func traceChurn(seed int64, sh shapes, rep *report) error {
	in := makeChurnInputs(seed, sh.churn)
	m := rep.Metrics
	dir, err := os.MkdirTemp(".", "perfbench-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "engine.snap")
	if err := writeChurnSnapshot(in, sh.churn, snapPath); err != nil {
		return err
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	m.set("snapshot.file_mb", float64(fi.Size())/(1<<20), "MiB")
	var load durs
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		model, err := snapshot.Load(snapPath, index.Options{})
		load.since(t0)
		if err != nil {
			return err
		}
		for _, subs := range model.Indexes {
			for _, sub := range subs {
				sub.Close()
			}
		}
	}
	m.set("snapshot.load_ms", medianDuration(load)*1e3, "ms")

	var parse durs
	for _, b := range in.Bodies {
		t0 := time.Now()
		if _, err := graph.ReadDataset(bytes.NewReader(b)); err != nil {
			return err
		}
		parse.since(t0)
	}
	m.set("graph.parse_us", medianDuration(parse)*1e6, "us")

	if err := traceLive(in, sh.churn, rep); err != nil {
		return err
	}

	// The handler pass and the loopback pass replay the same reads and
	// writes against fresh cold starts, so their caches fill alike.
	seq := in.Seq[:min(len(in.Seq), traceChurnReads)]
	every := max(1, min(sh.churn.ReadsPerWrite, len(seq)/4))
	a, err := coldStart(snapPath)
	if err != nil {
		return err
	}
	defer a.close()
	var handler durs
	hits := 0
	aw := &writer{srv: a.srv, pool: in.Pool, live: slices.Clone(in.DS), handles: a.eng.Handles()}
	for i, qi := range seq {
		req := httptest.NewRequest(http.MethodPost, "/query?stream=1", bytes.NewReader(in.Bodies[qi]))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		a.srv.ServeHTTP(rec, req)
		handler.since(t0)
		body := rec.Body.String()
		if rec.Code != http.StatusOK || !strings.Contains(body, `"done":true`) {
			rep.Failed++
		}
		if strings.Contains(body, `"cached":true`) {
			hits++
		}
		if (i+1)%every == 0 {
			aw.step()
		}
	}
	rep.Attempted += int64(len(seq) + len(aw.log))
	rep.Failed += aw.failures()
	st := a.srv.Stats()
	if st.ResultCache != nil {
		m.set("server.result_cache_hits", float64(st.ResultCache.Hits), "count")
	}
	cs, _ := a.eng.CacheStats()
	m.set("psi.cache_hits", float64(cs.ExactHits), "count")
	m.set("server.hit_ratio", float64(hits)/float64(len(seq)), "ratio")
	m.set("server.handler_us", medianDuration(handler)*1e6, "us")

	b, err := coldStart(snapPath)
	if err != nil {
		return err
	}
	defer b.close()
	bw := &writer{c: oneConnClient(), base: b.base, pool: in.Pool, live: slices.Clone(in.DS), handles: b.eng.Handles()}
	reader := oneConnClient()
	var loop durs
	for i, qi := range seq {
		r := streamQuery(reader, b.base, in.Bodies[qi])
		if r.failed {
			rep.Failed++
		}
		loop = append(loop, r.total)
		if (i+1)%every == 0 {
			bw.step()
		}
	}
	rep.Attempted += int64(len(seq) + len(bw.log))
	rep.Failed += bw.failures()
	m.set("server.transport_us", (medianDuration(loop)-medianDuration(handler))*1e6, "us")
	return nil
}

// traceLive probes internal/live directly: the writer's add/remove pairs
// on a store over the serve-churn dataset, then filter and verify on the
// live snapshot's ftv index.
func traceLive(in churnInputs, sh churnShape, rep *report) error {
	ctx := context.Background()
	st, err := live.NewStore(ctx, in.DS, live.Options{Kinds: []string{"ftv"}, Shards: sh.Shards})
	if err != nil {
		return err
	}
	defer st.Close()
	snap := st.Current()
	handles := slices.Clone(snap.Handles())
	snap.Release()
	var adds, removes durs
	compactions := 0
	for i := 0; i < traceChurnWrites; i++ {
		t0 := time.Now()
		h, err := st.Add(ctx, in.Pool[i%len(in.Pool)])
		adds.since(t0)
		if err != nil {
			return err
		}
		handles = append(handles, h)
		t0 = time.Now()
		compacted, err := st.Remove(ctx, handles[0])
		removes.since(t0)
		if err != nil {
			return err
		}
		handles = handles[1:]
		if compacted {
			compactions++
		}
	}
	rep.Attempted += 2 * traceChurnWrites
	m := rep.Metrics
	m.set("live.add_ms", medianDuration(adds)*1e3, "ms")
	m.set("live.remove_ms", medianDuration(removes)*1e3, "ms")
	m.set("live.compactions", float64(compactions), "count")

	snap = st.Current()
	defer snap.Release()
	x := snap.Index("ftv")
	var filter, verify durs
	for _, q := range in.Queries {
		t0 := time.Now()
		c := x.Filter(q)
		filter.since(t0)
		t0 = time.Now()
		for _, id := range c {
			if _, err := x.Verify(ctx, q, id); err != nil {
				return err
			}
		}
		verify.since(t0)
	}
	rep.Attempted += int64(len(in.Queries))
	m.set("index.filter_us.ftv_live", medianDuration(filter)*1e6, "us")
	m.set("index.verify_ms.ftv_live", medianDuration(verify)*1e3, "ms")
	return nil
}
