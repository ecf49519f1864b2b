package main

// Independent correctness oracles. Every index verifies its candidates
// with VF2, so containment is brute-forced with GraphQL over every dataset
// graph (no index, no race); embeddings are checked one by one against the
// stored graph and counted against VF2.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/vf2"
)

// containment answers "does graph g contain q" by brute force, memoized per
// (query, graph) so the serve-churn check can ask about the same graph in
// many epochs.
type containment struct {
	mu   sync.Mutex
	ms   map[*graph.Graph]*gql.Matcher
	memo map[[2]any]bool
}

func newContainment() *containment {
	return &containment{ms: map[*graph.Graph]*gql.Matcher{}, memo: map[[2]any]bool{}}
}

func (c *containment) contains(q, g *graph.Graph) (bool, error) {
	key := [2]any{q, g}
	c.mu.Lock()
	if v, ok := c.memo[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	m := c.ms[g]
	if m == nil {
		m = gql.New(g)
		c.ms[g] = m
	}
	c.mu.Unlock()
	embs, err := m.Match(context.Background(), q, 1)
	if err != nil {
		return false, fmt.Errorf("oracle: GraphQL on %s: %w", g.Name(), err)
	}
	c.mu.Lock()
	c.memo[key] = len(embs) > 0
	c.mu.Unlock()
	return len(embs) > 0, nil
}

// answer is the ascending list of positions in ds whose graph contains q.
func (c *containment) answer(q *graph.Graph, ds []*graph.Graph) ([]int, error) {
	var ids []int
	for i, g := range ds {
		ok, err := c.contains(q, g)
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, i)
		}
	}
	return ids, nil
}

// answers brute-forces every query over ds on all CPUs.
func (c *containment) answers(qs []*graph.Graph, ds []*graph.Graph) ([][]int, error) {
	out := make([][]int, len(qs))
	errs := make([]error, len(qs))
	parallelFor(len(qs), func(i int) { out[i], errs[i] = c.answer(qs[i], ds) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parallelFor runs f(0..n-1) on one goroutine per CPU and waits for all.
func parallelFor(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// checkContainAnswer checks one containment answer: ascending with no
// duplicates, holding the query's source graph (src < 0: none), and equal
// to the brute-force answer want.
func checkContainAnswer(got, want []int, src int) error {
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			return fmt.Errorf("answer %v is not strictly ascending at position %d", got, i)
		}
	}
	if src >= 0 && !slices.Contains(got, src) {
		return fmt.Errorf("answer %v misses the query's source graph %d", got, src)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("answer %v, brute force says %v", got, want)
	}
	return nil
}

// embedCount is min(limit, number of embeddings of q in g), by VF2.
func embedCount(g, q *graph.Graph, limit int) (int, error) {
	embs, err := vf2.New(g).Match(context.Background(), q, limit)
	if err != nil {
		return 0, fmt.Errorf("oracle: VF2: %w", err)
	}
	return len(embs), nil
}

// checkEmbeddings checks one embedding answer: every embedding is a valid
// subgraph isomorphism of q into g, no two are equal, and there are exactly
// want of them.
func checkEmbeddings(q, g *graph.Graph, embs []psi.Embedding, want int) error {
	seen := make(map[string]bool, len(embs))
	var key strings.Builder
	for i, e := range embs {
		if err := psi.VerifyEmbedding(q, g, e); err != nil {
			return fmt.Errorf("embedding %d %v: %w", i, e, err)
		}
		key.Reset()
		fmt.Fprint(&key, e)
		if seen[key.String()] {
			return fmt.Errorf("embedding %d %v is a duplicate", i, e)
		}
		seen[key.String()] = true
	}
	if len(embs) != want {
		return fmt.Errorf("%d embeddings, VF2 says min(limit, count) = %d", len(embs), want)
	}
	return nil
}

// graphBytes is g in the module's text format, as sent over HTTP.
func graphBytes(g *graph.Graph) []byte {
	var b bytes.Buffer
	if err := graph.WriteGraph(&b, g); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}
