package main

// embed-race: an NFV engine over one yeast-like stored graph races the
// default portfolio (GraphQL and sPath, each over the Orig and DND
// rewritings) on every query, streaming embeddings through
// Engine.QueryStream up to a fixed limit. One closed-loop client: each race
// already fills both CPUs. This is the paper's straggler regime, where
// rewritings and matchers do all the work.

import (
	"context"
	"errors"
	"fmt"
	"time"

	psi "github.com/psi-graph/psi"
)

// embedSetups is how many times the NFV engine is built; setup_s is the
// median. The build is milliseconds, so more repetitions steady it.
const embedSetups = 41

func runEmbed(seed int64, seconds float64, sh shapes) (*report, error) {
	in := makeEmbedInputs(seed, sh.embed)
	rep := newReport()
	eng, setup, err := setUp(embedSetups, func() (*psi.Engine, error) {
		return psi.NewEngine(in.G, psi.EngineOptions{Timeout: killCap})
	}, (*psi.Engine).Close)
	if err != nil {
		return nil, fmt.Errorf("building the embed-race engine: %w", err)
	}
	defer eng.Close()
	rep.Metrics.set("setup_s", setup, "s")
	rep.Metrics.set("heap_mb", liveHeapMB(), "MiB")

	// want[i] is min(limit, embeddings of query i). An answer of limit
	// valid, distinct embeddings proves it is the limit; below that, VF2
	// enumerates the query completely. VF2 is therefore run only on the
	// queries whose warm-up answer fell short of the limit: on the others
	// it can straggle for minutes, which is the very effect the race hides.
	want := make([]int, len(in.Queries))
	found := make([]int, len(in.Queries))
	do := func(i int) outcome {
		var embs []psi.Embedding
		var first time.Duration
		t0 := time.Now()
		res, err := eng.QueryStream(context.Background(), in.Queries[i], in.Limit, psi.SinkFunc(func(e psi.Embedding) bool {
			if embs == nil {
				first = time.Since(t0)
			}
			embs = append(embs, e.Clone())
			return true
		}))
		total := time.Since(t0)
		if err != nil || res.Killed {
			return outcome{failed: true}
		}
		if embs == nil {
			first = total
		}
		found[i] = len(embs)
		return outcome{first: first, total: total, check: func() error {
			return checkEmbeddings(in.Queries[i], in.G, embs, want[i])
		}}
	}
	closedLoop(len(in.Queries), 1, 0, 0, do) // warm-up, not counted
	errs := make([]error, len(in.Queries))
	parallelFor(len(in.Queries), func(i int) {
		want[i] = in.Limit
		if found[i] < in.Limit {
			want[i], errs[i] = embedCount(in.G, in.Queries[i], in.Limit)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	liveHeapMB()
	st := closedLoop(len(in.Queries), 1, seconds, samplesFor(tailQuantile), do)
	rep.fromLoop(st)
	if err := st.latencyMetrics(rep.Metrics); err != nil {
		return nil, err
	}
	rep.note("embed-race: graph %d vertices %d edges, %d distinct queries, limit %d, %d rounds",
		in.G.N(), in.G.M(), len(in.Queries), in.Limit, len(st.roundOps))
	return rep, nil
}
