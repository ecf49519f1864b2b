package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one operation of a closed loop reports: its latencies,
// whether it failed (an error, a kill or a non-200 response), and a check
// of its output that the loop runs after the round's clock has stopped.
type outcome struct {
	first, total time.Duration
	failed       bool
	check        func() error
}

// loopStats collects a closed loop's samples and per-round throughput.
type loopStats struct {
	first, total []time.Duration
	roundOps     []int
	roundDurs    []time.Duration
	attempted    int64
	failed       int64
	// wrong holds the first few answer-check failures; nwrong counts all.
	wrong  []string
	nwrong int64
}

func (s *loopStats) addWrong(err error) {
	s.nwrong++
	if len(s.wrong) < 5 {
		s.wrong = append(s.wrong, err.Error())
	}
}

// closedLoop runs rounds of the operations 0..n-1 from clients concurrent
// closed-loop clients (each takes the next operation only after its last
// completes) until at least seconds have passed and at least minSamples
// operations completed. Every round runs the whole list once, so each run
// attempts the same operations in the same proportions; rounds of zero
// seconds are one pass (the untimed warm-up).
func closedLoop(n, clients int, seconds float64, minSamples int, do func(i int) outcome) *loopStats {
	st := &loopStats{}
	outs := make([]outcome, n)
	start := time.Now()
	for {
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					outs[i] = do(i)
				}
			}()
		}
		wg.Wait()
		st.roundDurs = append(st.roundDurs, time.Since(t0))
		st.roundOps = append(st.roundOps, n)
		for i := range outs {
			o := &outs[i]
			st.attempted++
			if o.failed {
				st.failed++
				continue
			}
			st.first = append(st.first, o.first)
			st.total = append(st.total, o.total)
			if o.check != nil {
				if err := o.check(); err != nil {
					st.addWrong(fmt.Errorf("operation %d: %w", i, err))
				}
			}
			*o = outcome{}
		}
		if time.Since(start).Seconds() >= seconds && len(st.total) >= minSamples {
			return st
		}
	}
}

// latencyMetrics adds the query latency percentiles and the round
// throughput of a loop to m.
func (s *loopStats) latencyMetrics(m metrics) error {
	for _, p := range []struct {
		name string
		ds   []time.Duration
		q    float64
	}{
		{"query_p50_ms", s.total, 0.50},
		{"query_p90_ms", s.total, tailQuantile},
		{"first_result_p50_ms", s.first, 0.50},
		{"first_result_p90_ms", s.first, tailQuantile},
	} {
		v, err := percentile(p.ds, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m.set(p.name, ms(v), "ms")
	}
	m.set("throughput_qps", roundRate(s.roundOps, s.roundDurs), "1/s")
	return nil
}

// setUp builds n times, releasing every build but the last, and returns
// the last build with the median build time in seconds: work moved into
// set-up shows in setup_s, and one slow build does not.
func setUp[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var (
		v   T
		err error
	)
	ds := make([]time.Duration, n)
	for i := range ds {
		if i > 0 {
			release(v)
		}
		// Collect the last build's garbage untimed, so that no build pays
		// for its predecessor's.
		runtime.GC()
		t0 := time.Now()
		v, err = build()
		ds[i] = time.Since(t0)
		if err != nil {
			return v, 0, err
		}
	}
	return v, medianDuration(ds), nil
}

// liveHeapMB forces a collection and reports the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
