package main

// contain-race: a static dataset engine races the ftv, grapes and ggsx
// filter-then-verify pipelines on every containment query, under two
// closed-loop clients calling Engine.AnswerStreamResult. Index build
// dominates set-up; filter, verify and the race dominate each query. The
// server, live store, snapshot and caches sit idle: a racing engine answers
// every query live.

import (
	"context"
	"fmt"
	"time"

	psi "github.com/psi-graph/psi"
)

const (
	// containClients is the closed-loop client count: two, so racing
	// pipelines contend for the two CPUs the way concurrent users make
	// them.
	containClients = 2
	// containSetups is how many times set-up runs; setup_s is the median.
	containSetups = 5
	// killCap is the per-query kill cap of the racing engines. The seeded
	// query lists never reach it; a query that does counts as failed.
	killCap = 10 * time.Second
)

var raceKinds = []string{"ftv", "grapes", "ggsx"}

func runContain(seed int64, seconds float64, sh shapes) (*report, error) {
	in := makeContainInputs(seed, sh.contain)
	want, err := newContainment().answers(in.Queries, in.DS)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	eng, setup, err := setUp(containSetups, func() (*psi.Engine, error) {
		return psi.NewDatasetEngine(in.DS, psi.EngineOptions{Indexes: raceKinds, Timeout: killCap})
	}, (*psi.Engine).Close)
	if err != nil {
		return nil, fmt.Errorf("building the contain-race engine: %w", err)
	}
	defer eng.Close()
	rep.Metrics.set("setup_s", setup, "s")
	rep.Metrics.set("heap_mb", liveHeapMB(), "MiB")

	do := func(i int) outcome {
		var ids []int
		var first time.Duration
		t0 := time.Now()
		res, err := eng.AnswerStreamResult(context.Background(), in.Queries[i], func(id int) bool {
			if ids == nil {
				first = time.Since(t0)
			}
			ids = append(ids, id)
			return true
		})
		total := time.Since(t0)
		if err != nil || res.Killed {
			return outcome{failed: true}
		}
		if ids == nil {
			first = total
		}
		return outcome{first: first, total: total, check: func() error {
			return checkContainAnswer(ids, want[i], in.Sources[i])
		}}
	}
	closedLoop(len(in.Queries), containClients, 0, 0, do) // warm-up, not counted
	liveHeapMB()
	st := closedLoop(len(in.Queries), containClients, seconds, samplesFor(tailQuantile), do)
	rep.fromLoop(st)
	if err := st.latencyMetrics(rep.Metrics); err != nil {
		return nil, err
	}
	rep.note("contain-race: %d graphs, %d distinct queries, %d rounds", len(in.DS), len(in.Queries), len(st.roundOps))
	return rep, nil
}
