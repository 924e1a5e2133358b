package main

import (
	"fmt"
	"slices"

	"hetmpc"
)

// inputs are the graphs of one input set, by name. They are generated from
// the seed alone, so every repetition of a seed sees the same inputs.
type inputs map[string]*hetmpc.Graph

// job is one public algorithm call on a cluster of its own.
type job struct {
	layer string // "core" or "sublinear": the package behind the call
	alg   string // metric stem: the call's time is reported as <layer>.<alg>_s
	graph string // input name
	cfg   func(g *hetmpc.Graph, seed uint64) (hetmpc.Config, error)
	// run makes the call and returns a checker for its output; the checker
	// runs after the timed window and compares against exact references.
	run func(c *hetmpc.Cluster, g *hetmpc.Graph) (check func() error, err error)
	// prime, when set, computes a reference that costs a whole algorithm
	// run, once per input before any repetition, so its memory never adds
	// to a repetition's.
	prime func(g *hetmpc.Graph, seed uint64) error
}

// workload is one named benchmark: its input generator and its calls, in
// cluster build order. A repetition runs the calls on each of sets input
// sets; model totals whose spread across seeds is wide are steadied by
// averaging in more sets.
type workload struct {
	name string
	gen  func(seed uint64) inputs
	sets int
	jobs []job
	// probe names the input and cluster regime the layer probes use, so
	// they run at the workload's shape.
	probeGraph string
	probeSub   bool
}

// Table-1 sizes, as internal/exp's Table1 uses them.
const (
	t1N       = 512
	t1M       = 4096
	t1CutN    = 128
	t1ApproxN = 96
	t1Eps     = 0.25
	t1K       = 4 // spanner parameter
)

func het(f float64) func(g *hetmpc.Graph, seed uint64) (hetmpc.Config, error) {
	return func(g *hetmpc.Graph, seed uint64) (hetmpc.Config, error) {
		return hetmpc.Config{N: g.N, M: g.M(), F: f, Seed: seed}, nil
	}
}

func sub(g *hetmpc.Graph, seed uint64) (hetmpc.Config, error) {
	return hetmpc.Config{N: g.N, M: g.M(), NoLarge: true, Seed: seed}, nil
}

// skewed is the skew-faults cluster: a straggler profile, adaptive
// placement and a checkpointed random-crash fault plan.
func skewed(g *hetmpc.Graph, seed uint64) (hetmpc.Config, error) {
	cfg := hetmpc.Config{N: g.N, M: g.M(), Seed: seed}
	k := cfg.DeriveK()
	var err error
	if cfg.Profile, err = hetmpc.ParseProfile("straggler:8:4", k); err != nil {
		return cfg, err
	}
	if cfg.Placement, err = hetmpc.ParsePlacement("adaptive"); err != nil {
		return cfg, err
	}
	cfg.Faults, err = hetmpc.ParseFaultPlan("ckpt:4+rate:0.002", k)
	return cfg, err
}

var workloads = []*workload{
	{
		name: "table1",
		// Two input sets average out part of the seed-to-seed spread of the
		// work done; set 0 alone is the table hetbench prints for the seed.
		sets: 2,
		gen: func(seed uint64) inputs {
			gA := hetmpc.ConnectedGNM(t1ApproxN, t1ApproxN*6, seed, true)
			for i := range gA.Edges {
				gA.Edges[i].W = gA.Edges[i].W%32 + 1
			}
			return inputs{
				"unweighted": hetmpc.ConnectedGNM(t1N, t1M, seed, false),
				"weighted":   hetmpc.ConnectedGNM(t1N, t1M, seed, true),
				"approx":     gA,
				"cut":        hetmpc.PlantedCut(t1CutN, 400, 3, seed, false),
				"cut-w":      hetmpc.PlantedCut(t1CutN, 400, 3, seed+1, true),
			}
		},
		jobs: []job{
			baselineConnectivity("unweighted"),
			connectivity("unweighted", 0),
			connectivity("unweighted", 0.5),
			baselineMST("weighted"),
			mst("weighted", het(0)),
			mst("weighted", het(0.5)),
			approxMST("approx"),
			baselineSpanner("unweighted"),
			spanner("unweighted"),
			minCut("cut"),
			approxMinCut("cut-w"),
			baselineColoring("unweighted"),
			coloring("unweighted"),
			baselineMIS("unweighted"),
			mis("unweighted"),
			baselineMatching("unweighted"),
			matching("unweighted", "matching", het(0), hetmpc.MaximalMatching),
			matching("unweighted", "matching_filtering", het(0.5), hetmpc.MatchingFiltering),
		},
		probeGraph: "unweighted",
	},
	{
		name: "sublinear-scale",
		// The baselines' random-mate phase counts vary by about 13% from
		// seed to seed; over three input sets the model totals vary by
		// about 7%.
		sets: 3,
		gen: func(seed uint64) inputs {
			return inputs{"g": hetmpc.ConnectedGNM(4096, 32768, seed, true)}
		},
		jobs:       []job{baselineMST("g"), baselineConnectivity("g")},
		probeGraph: "g",
		probeSub:   true,
	},
	{
		name: "sketch-conn",
		sets: 1,
		gen: func(seed uint64) inputs {
			// m/n = 4: at m/n = 16 the sketch aggregation exceeds the
			// small machines' capacity, as the model requires.
			return inputs{"g": hetmpc.GNM(8192, 32768, seed)}
		},
		jobs:       []job{connectivity("g", 0)},
		probeGraph: "g",
	},
	{
		name: "skew-faults",
		sets: 1,
		gen: func(seed uint64) inputs {
			return inputs{"g": hetmpc.ConnectedGNM(4096, 32768, seed, true)}
		},
		jobs: []job{
			mst("g", skewed),
			matching("g", "matching", skewed, hetmpc.MaximalMatching),
		},
		probeGraph: "g",
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// --- calls and their reference checks ---

func connectivity(in string, f float64) job {
	return job{layer: "core", alg: "connectivity", graph: in, cfg: het(f),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.Connectivity(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return checkComponents(g, r.Labels, r.Components) }, nil
		}}
}

func baselineConnectivity(in string) job {
	return job{layer: "sublinear", alg: "connectivity", graph: in, cfg: sub,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.BaselineConnectivity(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return checkComponents(g, r.Labels, r.Components) }, nil
		}}
}

func mst(in string, cfg func(*hetmpc.Graph, uint64) (hetmpc.Config, error)) job {
	return job{layer: "core", alg: "mst", graph: in, cfg: cfg,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.MST(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return checkMSF(g, r.Edges, r.Weight) }, nil
		}}
}

func baselineMST(in string) job {
	return job{layer: "sublinear", alg: "mst", graph: in, cfg: sub,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.BaselineMST(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return checkMSF(g, r.Edges, r.Weight) }, nil
		}}
}

func approxMST(in string) job {
	return job{layer: "core", alg: "approx_mst", graph: in, cfg: het(0),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.ApproxMSTWeight(c, g, t1Eps)
			if err != nil {
				return nil, err
			}
			return func() error {
				_, exact := hetmpc.KruskalMSF(g)
				return checkWithin("approx MST weight", r.Estimate, exact, t1Eps)
			}, nil
		}}
}

func spanner(in string) job {
	return job{layer: "core", alg: "spanner", graph: in, cfg: het(0),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.Spanner(c, g, t1K)
			if err != nil {
				return nil, err
			}
			return func() error {
				return hetmpc.CheckSpanner(g, hetmpc.NewGraph(g.N, r.Edges, false), r.Stretch, 4, c.Seed())
			}, nil
		}}
}

func baselineSpanner(in string) job {
	return job{layer: "sublinear", alg: "spanner", graph: in, cfg: sub,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.BaselineSpanner(c, g, t1K)
			if err != nil {
				return nil, err
			}
			return func() error {
				return hetmpc.CheckSpanner(g, hetmpc.NewGraph(g.N, r.Edges, false), 2*t1K-1, 4, c.Seed())
			}, nil
		}}
}

func minCut(in string) job {
	return job{layer: "core", alg: "mincut", graph: in, cfg: het(0),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.MinCutUnweighted(c, g)
			if err != nil {
				return nil, err
			}
			return func() error {
				if want := hetmpc.StoerWagner(g); r.Value != want {
					return fmt.Errorf("exact min cut %d, want %d", r.Value, want)
				}
				return nil
			}, nil
		}}
}

func approxMinCut(in string) job {
	return job{layer: "core", alg: "approx_mincut", graph: in, cfg: het(0),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.ApproxMinCut(c, g, t1Eps)
			if err != nil {
				return nil, err
			}
			return func() error {
				return checkWithin("approx min cut", r.Value, hetmpc.StoerWagner(g), t1Eps)
			}, nil
		}}
}

func coloring(in string) job {
	return job{layer: "core", alg: "coloring", graph: in, cfg: het(0),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.Coloring(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return hetmpc.CheckColoring(g, r.Colors, g.MaxDegree()) }, nil
		}}
}

func baselineColoring(in string) job {
	return job{layer: "sublinear", alg: "coloring", graph: in, cfg: sub,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.BaselineColoring(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return hetmpc.CheckColoring(g, r.Colors, g.MaxDegree()) }, nil
		}}
}

func mis(in string) job {
	return job{layer: "core", alg: "mis", graph: in, cfg: het(0),
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.MIS(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return hetmpc.CheckMIS(g, r.Set) }, nil
		}}
}

func baselineMIS(in string) job {
	return job{layer: "sublinear", alg: "mis", graph: in, cfg: sub,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := hetmpc.BaselineMIS(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return hetmpc.CheckMIS(g, r.Set) }, nil
		}}
}

func matching(in, alg string, cfg func(*hetmpc.Graph, uint64) (hetmpc.Config, error),
	call func(*hetmpc.Cluster, *hetmpc.Graph) (*hetmpc.MatchingResult, error)) job {
	return job{layer: "core", alg: alg, graph: in, cfg: cfg,
		prime: func(g *hetmpc.Graph, seed uint64) error {
			c, err := cfg(g, seed)
			if err != nil || c.Faults == nil {
				return err
			}
			_, err = reliableMatching(alg, cfg, seed, g, call)
			return err
		},
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			r, err := call(c, g)
			if err != nil {
				return nil, err
			}
			return func() error {
				if err := hetmpc.CheckMatching(g, r.Edges, true); err != nil {
					return err
				}
				if !c.FaultsActive() {
					return nil
				}
				// Faults never change an output: the faulty run must match
				// the same cluster's run without its fault plan, edge for edge.
				want, err := reliableMatching(alg, cfg, c.Seed(), g, call)
				if err != nil {
					return err
				}
				return sameEdges("maximal matching under faults", r.Edges, want)
			}, nil
		}}
}

func baselineMatching(in string) job {
	return job{layer: "sublinear", alg: "matching", graph: in, cfg: sub,
		run: func(c *hetmpc.Cluster, g *hetmpc.Graph) (func() error, error) {
			edges, _, err := hetmpc.BaselineMatching(c, g)
			if err != nil {
				return nil, err
			}
			return func() error { return hetmpc.CheckMatching(g, edges, true) }, nil
		}}
}

// reliableCache memoizes the fault-free reference matchings: they are a
// pure function of the call, the graph and the cluster configuration, and
// recomputing one costs a whole algorithm run per repetition.
var reliableCache = map[string][]hetmpc.Edge{}

func reliableMatching(alg string, cfg func(*hetmpc.Graph, uint64) (hetmpc.Config, error), seed uint64,
	g *hetmpc.Graph, call func(*hetmpc.Cluster, *hetmpc.Graph) (*hetmpc.MatchingResult, error)) ([]hetmpc.Edge, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", alg, g.N, g.M(), seed)
	if want, ok := reliableCache[key]; ok {
		return want, nil
	}
	rcfg, err := cfg(g, seed)
	if err != nil {
		return nil, err
	}
	rcfg.Faults = nil
	rc, err := hetmpc.NewCluster(rcfg)
	if err != nil {
		return nil, err
	}
	r, err := call(rc, g)
	if err != nil {
		return nil, fmt.Errorf("fault-free reference run: %w", err)
	}
	reliableCache[key] = r.Edges
	return r.Edges, nil
}

func checkComponents(g *hetmpc.Graph, labels []int, count int) error {
	want, wantCount := hetmpc.Components(g)
	if count != wantCount {
		return fmt.Errorf("%d components, want %d", count, wantCount)
	}
	if len(labels) != len(want) {
		return fmt.Errorf("%d labels for %d vertices", len(labels), len(want))
	}
	// Same partition: the label maps must be a bijection.
	fwd, back := map[int]int{}, map[int]int{}
	for v, l := range labels {
		if w, ok := fwd[l]; ok && w != want[v] {
			return fmt.Errorf("vertex %d: components merged", v)
		}
		if x, ok := back[want[v]]; ok && x != l {
			return fmt.Errorf("vertex %d: component split", v)
		}
		fwd[l], back[want[v]] = want[v], l
	}
	return nil
}

// checkMSF requires the exact minimum spanning forest: the generators give
// distinct weights, so it is unique and must match Kruskal edge for edge.
func checkMSF(g *hetmpc.Graph, edges []hetmpc.Edge, weight int64) error {
	want, wantWeight := hetmpc.KruskalMSF(g)
	if weight != wantWeight {
		return fmt.Errorf("MST weight %d, want %d", weight, wantWeight)
	}
	return sameEdges("MST", edges, want)
}

func sameEdges(what string, got, want []hetmpc.Edge) error {
	cmp := func(a, b hetmpc.Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	}
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, cmp)
	slices.SortFunc(want, cmp)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: %d edges differ from the %d-edge reference", what, len(got), len(want))
	}
	return nil
}

func checkWithin(what string, got, exact int64, eps float64) error {
	if d := float64(got-exact) / float64(exact); d > eps || d < -eps {
		return fmt.Errorf("%s %d is off the exact %d by %+.3f (ε = %v)", what, got, exact, d, eps)
	}
	return nil
}
