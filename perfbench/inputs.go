package main

// Seeded input generation. Every input of a run is a pure function of the
// --seed argument and the workload's shape; the program under test only
// ever sees the generated graphs. The stored graphs themselves (dataset,
// NFV graph, ingest pool) come from the fixed datasetSeed, the way the
// paper fixes its real datasets and draws random query workloads over
// them: a run's seed picks the queries and request sequences, so runs with
// different seeds measure the same system on different traffic.

import (
	"fmt"
	"math/rand"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/workload"
)

// Seed offsets keep the streams of one run independent of each other.
const (
	// datasetSeed generates every stored graph.
	datasetSeed = 1

	seedDataset = 0x1
	seedQueries = 0x2
	seedForeign = 0x3
	seedPool    = 0x4
	seedZipf    = 0x5
)

func subSeed(seed int64, stream int64) int64 { return seed*7919 + stream*104729 }

// containShape sizes the contain-race inputs.
type containShape struct {
	PPI gen.PPIConfig
	// Sizes are the query sizes in edges; PerSize queries of each.
	Sizes   []int
	PerSize int
	// ForeignEvery makes every n-th query come from the foreign generator
	// instead of the dataset, so filters have graphs to prune.
	ForeignEvery int
	Foreign      gen.SyntheticConfig
}

var containFull = containShape{
	PPI:          gen.PPIConfig{NumGraphs: 32, AvgNodes: 80, NodeSpread: 20, AvgDegree: 4, Labels: 10, LabelsPer: 7, IsolatedPct: 0.02},
	Sizes:        []int{4, 8, 12},
	PerSize:      400,
	ForeignEvery: 5,
	Foreign:      gen.SyntheticConfig{NumGraphs: 8, AvgNodes: 60, NodeSpread: 10, Density: 0.12, Labels: 10},
}

var containSmoke = containShape{
	PPI:          gen.PPIConfig{NumGraphs: 6, AvgNodes: 40, NodeSpread: 10, AvgDegree: 4, Labels: 8, LabelsPer: 6, IsolatedPct: 0.02},
	Sizes:        []int{4, 8},
	PerSize:      10,
	ForeignEvery: 5,
	Foreign:      gen.SyntheticConfig{NumGraphs: 2, AvgNodes: 30, NodeSpread: 5, Density: 0.15, Labels: 8},
}

// containInputs is one contain-race input set.
type containInputs struct {
	DS      []*graph.Graph
	Queries []*graph.Graph
	// Sources is the dataset graph each query was extracted from, -1 for
	// queries from the foreign generator.
	Sources []int
}

func makeContainInputs(seed int64, sh containShape) containInputs {
	in := containInputs{DS: gen.PPI(sh.PPI, subSeed(datasetSeed, seedDataset))}
	foreign := gen.Synthetic(sh.Foreign, subSeed(seed, seedForeign))
	r := rand.New(rand.NewSource(subSeed(seed, seedQueries)))
	for _, size := range sh.Sizes {
		for i := 0; i < sh.PerSize; i++ {
			if sh.ForeignEvery > 0 && i%sh.ForeignEvery == sh.ForeignEvery-1 {
				in.Queries = append(in.Queries, workload.Extract(r, foreign[r.Intn(len(foreign))], size))
				in.Sources = append(in.Sources, -1)
				continue
			}
			src := r.Intn(len(in.DS))
			in.Queries = append(in.Queries, workload.Extract(r, in.DS[src], size))
			in.Sources = append(in.Sources, src)
		}
	}
	// Interleave the sizes so every stretch of the list has the same mix.
	r.Shuffle(len(in.Queries), func(i, j int) {
		in.Queries[i], in.Queries[j] = in.Queries[j], in.Queries[i]
		in.Sources[i], in.Sources[j] = in.Sources[j], in.Sources[i]
	})
	return in
}

// embedShape sizes the embed-race inputs.
type embedShape struct {
	Graph   gen.SingleConfig
	Sizes   []int
	PerSize int
	// Limit is the embedding limit of every query.
	Limit int
}

var embedFull = embedShape{
	Graph:   gen.SingleConfig{Nodes: 500, Edges: 2000, Labels: 32, LabelZipfS: 1.4, PrefAttach: 0.95, Tree: true},
	Sizes:   []int{8, 12, 16},
	PerSize: 400,
	Limit:   100,
}

var embedSmoke = embedShape{
	Graph:   gen.SingleConfig{Nodes: 120, Edges: 400, Labels: 12, LabelZipfS: 1.4, PrefAttach: 0.95, Tree: true},
	Sizes:   []int{8, 12},
	PerSize: 8,
	Limit:   20,
}

// embedInputs is one embed-race input set.
type embedInputs struct {
	G       *graph.Graph
	Queries []*graph.Graph
	Limit   int
}

func makeEmbedInputs(seed int64, sh embedShape) embedInputs {
	in := embedInputs{G: gen.Single("yeast-like", sh.Graph, subSeed(datasetSeed, seedDataset)), Limit: sh.Limit}
	r := rand.New(rand.NewSource(subSeed(seed, seedQueries)))
	for _, size := range sh.Sizes {
		for i := 0; i < sh.PerSize; i++ {
			in.Queries = append(in.Queries, workload.Extract(r, in.G, size))
		}
	}
	r.Shuffle(len(in.Queries), func(i, j int) { in.Queries[i], in.Queries[j] = in.Queries[j], in.Queries[i] })
	return in
}

// churnShape sizes the serve-churn inputs.
type churnShape struct {
	PPI gen.PPIConfig
	// Shards is the engine's shard count.
	Shards int
	// Pool is how many fresh graphs the writer ingests in turn.
	Pool int
	// Sizes and PerSize shape the distinct query list; ZipfS and ZipfLen
	// the skewed request sequence drawn over it.
	Sizes   []int
	PerSize int
	ZipfS   float64
	ZipfLen int
	// ReadsPerWrite paces the writer: one mutation per this many reads.
	ReadsPerWrite int
}

var churnFull = churnShape{
	PPI:           gen.PPIConfig{NumGraphs: 24, AvgNodes: 60, NodeSpread: 15, AvgDegree: 4, Labels: 10, LabelsPer: 7, IsolatedPct: 0.02},
	Shards:        4,
	Pool:          48,
	Sizes:         []int{4, 8},
	PerSize:       150,
	ZipfS:         1.2,
	ZipfLen:       4000,
	ReadsPerWrite: 500,
}

var churnSmoke = churnShape{
	PPI:           gen.PPIConfig{NumGraphs: 8, AvgNodes: 40, NodeSpread: 10, AvgDegree: 4, Labels: 8, LabelsPer: 6, IsolatedPct: 0.02},
	Shards:        2,
	Pool:          8,
	Sizes:         []int{4},
	PerSize:       12,
	ZipfS:         1.2,
	ZipfLen:       200,
	ReadsPerWrite: 10,
}

// churnInputs is one serve-churn input set.
type churnInputs struct {
	DS []*graph.Graph
	// Pool holds the graphs the writer ingests, in order.
	Pool    []*graph.Graph
	Queries []*graph.Graph
	// Bodies are the queries in the module's text format, as sent.
	Bodies [][]byte
	// Seq is the Zipf-skewed request sequence: indexes into Queries.
	Seq []int
}

func makeChurnInputs(seed int64, sh churnShape) churnInputs {
	in := churnInputs{DS: gen.PPI(sh.PPI, subSeed(datasetSeed, seedDataset))}
	pc := sh.PPI
	pc.NumGraphs = sh.Pool
	for i, g := range gen.PPI(pc, subSeed(datasetSeed, seedPool)) {
		in.Pool = append(in.Pool, g.Clone(fmt.Sprintf("pool-%03d", i)))
	}
	r := rand.New(rand.NewSource(subSeed(seed, seedQueries)))
	// Queries come from the base dataset and the ingest pool alike, so
	// the graphs the writer adds show up in answers.
	all := append(append([]*graph.Graph(nil), in.DS...), in.Pool...)
	for _, size := range sh.Sizes {
		for i := 0; i < sh.PerSize; i++ {
			in.Queries = append(in.Queries, workload.Extract(r, all[r.Intn(len(all))], size))
		}
	}
	r.Shuffle(len(in.Queries), func(i, j int) { in.Queries[i], in.Queries[j] = in.Queries[j], in.Queries[i] })
	for _, q := range in.Queries {
		in.Bodies = append(in.Bodies, graphBytes(q))
	}
	zr := rand.New(rand.NewSource(subSeed(seed, seedZipf)))
	z := rand.NewZipf(zr, sh.ZipfS, 1, uint64(len(in.Queries)-1))
	for i := 0; i < sh.ZipfLen; i++ {
		in.Seq = append(in.Seq, int(z.Uint64()))
	}
	return in
}
