package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"hetmpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sketch"
)

// probeIters is how many times each layer probe runs; the median is kept.
const probeIters = 5

// runProbes times direct calls into the prims and sketch layers at the
// workload's shape: its main graph's edges, spread over a cluster of the
// workload's regime. Each call runs on freshly prepared inputs; only the
// call itself is timed, and its output is checked after the clock stops.
func runProbes(w *workload, seed uint64) (map[string]float64, error) {
	g := w.gen(seed)[w.probeGraph]
	out := map[string]float64{}
	probes := []struct {
		name    string
		prepare probe
	}{
		{"prims.sort_probe", func() (func() error, func() error, error) { return sortProbe(g, seed, w.probeSub) }},
		{"prims.segbcast_probe", func() (func() error, func() error, error) { return segbcastProbe(g, seed, w.probeSub) }},
		{"prims.aggregate_probe", func() (func() error, func() error, error) { return aggregateProbe(g, seed, w.probeSub) }},
		{"sketch.update_probe", func() (func() error, func() error, error) { return sketchUpdateProbe(g, seed) }},
		{"sketch.merge_probe", func() (func() error, func() error, error) { return sketchMergeProbe(g, seed) }},
	}
	for _, p := range probes {
		secs := make([]float64, probeIters)
		allocs := make([]float64, probeIters)
		for i := range secs {
			call, check, err := p.prepare()
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", p.name, err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t := time.Now()
			err = call()
			secs[i] = time.Since(t).Seconds()
			runtime.ReadMemStats(&m1)
			if err == nil {
				err = check()
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			allocs[i] = float64(m1.Mallocs - m0.Mallocs)
		}
		out[p.name+"_s"] = medianOf(secs)
		out[p.name+"_allocs"] = medianOf(allocs)
	}
	return out, nil
}

// probe prepares one probe's inputs untimed and returns the call to time,
// which makes only the library call and keeps its output, and the check of
// that output.
type probe func() (call, check func() error, err error)

func medianOf(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// probeCluster builds a cluster of g's shape and spreads g's edges over its
// small machines.
func probeCluster(g *hetmpc.Graph, seed uint64, noLarge bool) (*hetmpc.Cluster, [][]hetmpc.Edge, error) {
	c, err := hetmpc.NewCluster(hetmpc.Config{N: g.N, M: g.M(), NoLarge: noLarge, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	edges, err := prims.DistributeEdges(c, g)
	return c, edges, err
}

// sortProbe sample-sorts the edges by (weight, u, v): the key shape of the
// Borůvka and KKT sorts.
func sortProbe(g *hetmpc.Graph, seed uint64, noLarge bool) (call, check func() error, err error) {
	c, edges, err := probeCluster(g, seed, noLarge)
	if err != nil {
		return nil, nil, err
	}
	key := func(e hetmpc.Edge) prims.SortKey { return prims.SortKey{A: e.W, B: int64(e.U), C: int64(e.V)} }
	var sorted [][]hetmpc.Edge
	call = func() (err error) {
		sorted, err = prims.Sort(c, edges, 3, key)
		return err
	}
	check = func() error {
		if !prims.IsGloballySorted(sorted, key) || prims.CountItems(sorted) != g.M() {
			return fmt.Errorf("sort output is not the sorted input")
		}
		return nil
	}
	return call, check, nil
}

// segbcastProbe disseminates one value per vertex to every machine holding
// an edge at that vertex — the label lookups of contraction algorithms.
// With a large machine the values start there (DisseminateFromLarge);
// without one they start spread over the small machines.
func segbcastProbe(g *hetmpc.Graph, seed uint64, noLarge bool) (call, check func() error, err error) {
	c, edges, err := probeCluster(g, seed, noLarge)
	if err != nil {
		return nil, nil, err
	}
	value := func(v int64) int64 { return 3*v + 1 }
	needs := make([][]int64, c.K())
	for i, es := range edges {
		for _, e := range es {
			needs[i] = append(needs[i], int64(e.U), int64(e.V))
		}
		slices.Sort(needs[i])
		needs[i] = slices.Compact(needs[i])
	}
	var got []map[int64]int64
	if noLarge {
		small := make([][]prims.KV[int64], c.K())
		for v := 0; v < g.N; v++ {
			i := v % c.K()
			small[i] = append(small[i], prims.KV[int64]{K: int64(v), V: value(int64(v))})
		}
		call = func() (err error) {
			got, err = prims.SegmentedBroadcast(c, needs, small, nil, 1)
			return err
		}
	} else {
		values := make(map[int64]int64, g.N)
		for v := 0; v < g.N; v++ {
			values[int64(v)] = value(int64(v))
		}
		call = func() (err error) {
			got, err = prims.DisseminateFromLarge(c, needs, values, 1)
			return err
		}
	}
	check = func() error {
		for i, keys := range needs {
			for _, k := range keys {
				if got[i][k] != value(k) {
					return fmt.Errorf("machine %d got %d for key %d, want %d", i, got[i][k], k, value(k))
				}
			}
		}
		return nil
	}
	return call, check, nil
}

// aggregateProbe sums per-endpoint counts by vertex: the degree
// computation every algorithm starts with.
func aggregateProbe(g *hetmpc.Graph, seed uint64, noLarge bool) (call, check func() error, err error) {
	c, edges, err := probeCluster(g, seed, noLarge)
	if err != nil {
		return nil, nil, err
	}
	items := make([][]prims.KV[int64], c.K())
	for i, es := range edges {
		for _, e := range es {
			items[i] = append(items[i], prims.KV[int64]{K: int64(e.U), V: 1}, prims.KV[int64]{K: int64(e.V), V: 1})
		}
	}
	var roots []map[int64]int64
	call = func() (err error) {
		roots, _, err = prims.AggregateByKey(c, items, 1, func(a, b int64) int64 { return a + b }, false)
		return err
	}
	check = func() error {
		deg := g.Degrees()
		seen := 0
		for _, r := range roots {
			for v, d := range r {
				if d != int64(deg[v]) {
					return fmt.Errorf("vertex %d degree %d, want %d", v, d, deg[v])
				}
				seen++
			}
		}
		for _, d := range deg {
			if d > 0 {
				seen--
			}
		}
		if seen != 0 {
			return fmt.Errorf("aggregate keys do not match the non-isolated vertices")
		}
		return nil
	}
	return call, check, nil
}

// sketchFamily returns the family shape Connectivity uses for g: levels up
// to log2 of twice the edge count, capped by the n² universe.
func sketchFamily(g *hetmpc.Graph, seed uint64) (*sketch.Family, int64) {
	universe := int64(g.N) * int64(g.N)
	levels := 2
	for u := 1; u < 2*g.M()+2; u <<= 1 {
		levels++
	}
	levels += 2
	maxLevels := 2
	for u := int64(1); u < universe; u <<= 1 {
		maxLevels++
	}
	return sketch.NewFamilyLevels(min(levels, maxLevels), seed), universe
}

// vertexSketches returns one empty sketch per vertex and the edge updater.
func vertexSketches(g *hetmpc.Graph, seed uint64) ([]*sketch.Sketch, *sketch.EdgeUpdater) {
	f, universe := sketchFamily(g, seed)
	arena := f.NewArena(universe)
	sk := make([]*sketch.Sketch, g.N)
	for v := range sk {
		sk[v] = arena.NewSketch()
	}
	return sk, f.NewEdgeUpdater(g.N)
}

// sketchUpdateProbe applies every edge's incidence update to both endpoint
// sketches: one Connectivity phase's sketching work.
func sketchUpdateProbe(g *hetmpc.Graph, seed uint64) (call, check func() error, err error) {
	sk, up := vertexSketches(g, seed)
	call = func() error {
		for _, e := range g.Edges {
			up.AddEdgeBoth(sk[e.U], sk[e.V], e)
		}
		return nil
	}
	check = func() error {
		if g.M() > 0 && sk[g.Edges[0].U].IsZero() {
			return fmt.Errorf("update left an endpoint sketch empty")
		}
		return nil
	}
	return call, check, nil
}

// sketchMergeProbe folds every vertex sketch into one. Each edge adds +1 at
// one endpoint and -1 at the other, so the sum over all vertices is the
// zero sketch.
func sketchMergeProbe(g *hetmpc.Graph, seed uint64) (call, check func() error, err error) {
	sk, up := vertexSketches(g, seed)
	for _, e := range g.Edges {
		up.AddEdgeBoth(sk[e.U], sk[e.V], e)
	}
	call = func() error {
		for _, s := range sk[1:] {
			if err := sk[0].Merge(s); err != nil {
				return err
			}
		}
		return nil
	}
	check = func() error {
		if !sk[0].IsZero() {
			return fmt.Errorf("merged sketch of all vertices is not zero")
		}
		return nil
	}
	return call, check, nil
}
