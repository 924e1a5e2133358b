// Command harness runs one perfbench workload against the hetmpc library
// and prints its metrics. perfbench/run.py builds it and passes the flags;
// see perfbench/README.md for the workloads and what each metric means.
//
// With -trace 0 it repeats the workload untraced for -seconds and prints the
// end-to-end metrics (medians over the repetitions). With -trace 1 it spends
// half of -seconds untraced and half traced (trace collector, metrics
// registry and CPU profile on), then runs the direct-call layer probes, and
// prints the per-layer metrics. The last line of standard output is the
// result object; the line before it is the host fingerprint.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hetmpc"
)

// heldBackSeed is never used while a change is tuned; a claimed gain must
// also hold on it.
const heldBackSeed = 2022

// table1CheckSeed is the seed of the committed bench/BENCH_table1.json
// artifact, whose model block table1 must reproduce exactly.
const table1CheckSeed = 7

// setupsPerRep is how many extra set-ups an untraced run times before each
// repetition; setup_s is their median. A set-up takes milliseconds, and on
// a shared host its time swings by half with the load of the moment, so
// the samples are many and spread over the whole measured window, as the
// repetitions are.
const setupsPerRep = 30

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement time")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		root    = flag.String("root", ".", "repository root (for bench/BENCH_table1.json)")
		state   = flag.String("state", "", "directory for the exact-counter records of earlier runs (empty: none)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	b := &bench{w: w, seed: *seed}
	metrics, err := b.measure(*traced == 1, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 1
	}
	// Determinism guard: the exact counters of every repetition, traced or
	// not, and of every earlier run of this seed on the same build must
	// agree bit for bit.
	if err := b.checkDrift(*state); err != nil {
		fmt.Fprintln(os.Stderr, "harness: exact counters drifted:", err)
		return 3
	}
	correct := b.failed == 0
	if w.name == "table1" && *seed == table1CheckSeed {
		if err := checkTable1Artifact(*root, b.firstSet); err != nil {
			fmt.Fprintln(os.Stderr, "harness: table1 self-check:", err)
			correct = false
		}
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "harness: failed call:", e)
	}

	rssWindow := "repetition"
	if !b.rssPerRep {
		rssWindow = "process"
	}
	fp, err := json.Marshal(map[string]any{
		"fingerprint":     fingerprint(w.name, *seed, *traced, *seconds),
		"samples":         b.samples,
		"setup_samples":   b.setups,
		"peak_rss_window": rssWindow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 1
	}
	res, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", fp, res)
	return 0
}

// measure runs the warm-up and then, untraced, the end-to-end measurement;
// traced, half the budget untraced, half traced under the CPU profiler, and
// the layer probes.
func (b *bench) measure(traced bool, budget time.Duration) (map[string]metric, error) {
	if err := b.prime(); err != nil {
		return nil, err
	}
	// Warm-up: the first run in a process is slower (sketch-conn's was up to
	// 1.6× the later ones); it is checked and counted but not timed.
	if _, err := b.rep(false); err != nil {
		return nil, err
	}
	if !traced {
		plain, err := b.reps(false, budget, setupsPerRep)
		if err != nil {
			return nil, err
		}
		return endToEnd(plain, b.setups), nil
	}
	plain, err := b.reps(false, budget/2, 0)
	if err != nil {
		return nil, err
	}
	b.profDir, err = os.MkdirTemp("", "perfbench-cpu-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.profDir)
	tr, err := b.reps(true, budget/2, 0)
	if err != nil {
		return nil, err
	}
	split, err := cpuSplit(b.profiles)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	probes, err := runProbes(b.w, b.seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return perLayer(plain, tr, split, probes, b), nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// modelCounts are the exact model-side totals of one repetition, summed
// over its clusters in build order.
type modelCounts struct {
	Rounds           int     `json:"rounds"`
	Messages         int64   `json:"messages"`
	Words            int64   `json:"words"`
	MaxRecvWords     int     `json:"max_recv_words"` // max over clusters
	Makespan         float64 `json:"makespan"`
	BusyImbalance    float64 `json:"busy_imbalance"` // max over clusters
	Crashes          int     `json:"crashes"`
	Checkpoints      int     `json:"checkpoints"`
	RecoveryRounds   int     `json:"recovery_rounds"`
	ReplicationWords int64   `json:"replication_words"`
}

// add folds one cluster's totals in.
func (m *modelCounts) add(c *hetmpc.Cluster) {
	st := c.Stats()
	m.Rounds += st.Rounds
	m.Messages += st.Messages
	m.Words += st.TotalWords
	m.MaxRecvWords = max(m.MaxRecvWords, st.MaxRecvWords)
	m.Makespan += st.Makespan
	m.BusyImbalance = max(m.BusyImbalance, c.BusyImbalance())
	m.Crashes += st.Crashes
	m.Checkpoints += st.Checkpoints
	m.RecoveryRounds += st.RecoveryRounds
	m.ReplicationWords += st.ReplicationWords
}

// traceCounts are the exact counters only a traced repetition has.
type traceCounts struct {
	SilentRounds int64               `json:"silent_rounds"`
	Phases       map[string][2]int64 `json:"phases"` // prims phase -> {rounds, words}
}

// primPhases are the span names the prims package opens; a traced round is
// charged to the innermost one on its phase path.
var primPhases = []string{"sort", "broadcast", "aggregate", "arrange", "distribute", "gather", "scatter"}

// sample is what one repetition measured.
type sample struct {
	gen, build, wall, cpu, check float64 // seconds
	allocBytes, allocs           uint64
	gcCycles                     uint32
	gcPause                      float64
	peakRSS                      float64            // bytes; see resetPeakRSS
	peakResident                 float64            // bytes
	spans                        map[string]float64 // <layer>.<alg>_s -> seconds
	model                        modelCounts        // all input sets
	firstSet                     modelCounts        // input set 0: the seed's own inputs
	trace                        *traceCounts
}

// bench holds one run's workload, seed and running tallies.
type bench struct {
	w                 *workload
	seed              uint64
	attempted, failed int
	errs              []string
	model             *modelCounts // first repetition's; every other must match
	firstSet          *modelCounts // the same, over input set 0 only
	trace             *traceCounts // first traced repetition's
	drift             []string
	samples           [][3]float64 // {wall, cpu, set-up} seconds of each timed repetition
	setups            []float64    // seconds of each extra set-up
	rssPerRep         bool         // whether the last repetition's peak RSS covers it alone
	profDir           string       // where traced repetitions write their CPU profiles
	profiles          []string     // one per traced repetition: its calls only
}

// reps repeats the workload until budget has elapsed (at least once),
// timing setups extra set-ups, whose clusters are discarded, before each
// repetition.
func (b *bench) reps(traced bool, budget time.Duration, setups int) ([]*sample, error) {
	var out []*sample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		for range setups {
			_, gen, build, err := b.setup(nil)
			if err != nil {
				return nil, err
			}
			b.setups = append(b.setups, gen+build)
		}
		s, err := b.rep(traced)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		b.samples = append(b.samples, [3]float64{s.wall, s.cpu, s.gen + s.build})
	}
	return out, nil
}

// call is one job of one input set, with the cluster built for it.
type call struct {
	job
	g *hetmpc.Graph
	c *hetmpc.Cluster
}

// inputSeed is the generator seed of input set i: the run's seed itself for
// the first set, so a one-set workload's inputs are those of its seed.
func inputSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }

// setup generates every input set and builds one cluster per call, timing
// the two steps apart. A non-nil reg traces the clusters: each gets a trace
// collector and publishes into reg.
func (b *bench) setup(reg *hetmpc.Metrics) (calls []call, gen, build float64, err error) {
	// Start each set-up from a collected heap and run it with the collector
	// off: a set-up takes milliseconds, and whether a GC cycle lands in it
	// would otherwise vary its time by half.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t := time.Now()
	ins := make([]inputs, b.w.sets)
	for i := range ins {
		ins[i] = b.w.gen(inputSeed(b.seed, i))
	}
	gen = time.Since(t).Seconds()
	t = time.Now()
	for i, in := range ins {
		for _, j := range b.w.jobs {
			g := in[j.graph]
			cfg, err := j.cfg(g, inputSeed(b.seed, i))
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s config: %w", j.alg, err)
			}
			if reg != nil {
				cfg.Trace, cfg.Metrics = hetmpc.NewTrace(), reg
			}
			c, err := hetmpc.NewCluster(cfg)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s cluster: %w", j.alg, err)
			}
			calls = append(calls, call{j, g, c})
		}
	}
	return calls, gen, time.Since(t).Seconds(), nil
}

// prime computes the jobs' costly references for every input set.
func (b *bench) prime() error {
	for i := 0; i < b.w.sets; i++ {
		in := b.w.gen(inputSeed(b.seed, i))
		for _, j := range b.w.jobs {
			if j.prime == nil {
				continue
			}
			if err := j.prime(in[j.graph], inputSeed(b.seed, i)); err != nil {
				return fmt.Errorf("%s reference: %w", j.alg, err)
			}
		}
	}
	return nil
}

// rep runs the workload once: set-up (inputs and clusters), the timed
// calls, then the reference checks.
func (b *bench) rep(traced bool) (*sample, error) {
	s := &sample{spans: map[string]float64{}}
	var reg *hetmpc.Metrics
	if traced {
		reg = hetmpc.NewMetrics()
	}
	calls, gen, build, err := b.setup(reg)
	if err != nil {
		return nil, err
	}
	s.gen, s.build = gen, build

	checks := make([]func() error, len(calls))
	errs := make([]error, len(calls))
	// A traced repetition profiles its calls alone, so the CPU split
	// leaves out set-up and the reference checks, as wall_s does.
	var prof *os.File
	if traced {
		if prof, err = os.Create(filepath.Join(b.profDir, fmt.Sprintf("rep%d.pprof", len(b.profiles)))); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.rssPerRep = resetPeakRSS()
	cpu0 := cpuTime()
	start := time.Now()
	for i, cl := range calls {
		t := time.Now()
		checks[i], errs[i] = cl.run(cl.c, cl.g)
		s.spans[cl.layer+"."+cl.alg+"_s"] += time.Since(t).Seconds()
	}
	s.wall = time.Since(start).Seconds()
	s.cpu = cpuTime() - cpu0
	s.peakRSS = peakRSS()
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		b.profiles = append(b.profiles, prof.Name())
	}
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.allocs = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9

	t := time.Now()
	for i, cl := range calls {
		b.attempted++
		if errs[i] == nil {
			errs[i] = checks[i]()
		}
		if errs[i] != nil {
			b.failed++
			b.errs = append(b.errs, fmt.Sprintf("%s.%s: %v", cl.layer, cl.alg, errs[i]))
		}
	}
	s.check = time.Since(t).Seconds()

	var rounds []hetmpc.TraceRound
	for i, cl := range calls {
		s.model.add(cl.c)
		if i < len(b.w.jobs) {
			s.firstSet.add(cl.c)
		}
		if tr := cl.c.Trace(); tr != nil {
			rounds = append(rounds, tr.Rounds()...)
		}
	}
	if traced {
		tc := &traceCounts{
			SilentRounds: reg.Counter("mpc_silent_rounds_total").Value(),
			Phases:       map[string][2]int64{},
		}
		for _, p := range primPhases {
			tc.Phases[p] = [2]int64{}
		}
		for _, p := range hetmpc.SummarizeTrace(rounds).Phases {
			leaf := p.Phase[strings.LastIndexByte(p.Phase, '/')+1:]
			if v, ok := tc.Phases[leaf]; ok {
				tc.Phases[leaf] = [2]int64{v[0] + int64(p.Rounds), v[1] + p.Words}
			}
		}
		s.trace = tc
	}
	b.compare(s)
	return s, nil
}

// compare records any difference between s's exact counters and the first
// repetition's.
func (b *bench) compare(s *sample) {
	if b.model == nil {
		b.model, b.firstSet = &s.model, &s.firstSet
	} else if s.model != *b.model {
		b.drift = append(b.drift, fmt.Sprintf("model counters %+v, first repetition %+v", s.model, *b.model))
	}
	if s.trace == nil {
		return
	}
	if b.trace == nil {
		b.trace = s.trace
	} else if !sameJSON(s.trace, b.trace) {
		b.drift = append(b.drift, fmt.Sprintf("trace counters %+v, first traced repetition %+v", *s.trace, *b.trace))
	}
}

// record is the persisted exact-counter record of one (workload, seed).
type record struct {
	Model *modelCounts `json:"model"`
	Trace *traceCounts `json:"trace,omitempty"`
}

// checkDrift fails on any in-process drift, then compares this run's exact
// counters with the record earlier runs of the seed on the same build left
// in dir and merges this run's into it. The record is keyed by a hash of
// the harness binary, which embeds the library: a change to the library is
// free to move the counters, and its runs start a record of their own.
func (b *bench) checkDrift(dir string) error {
	if len(b.drift) > 0 {
		return errors.New(strings.Join(b.drift, "; "))
	}
	if dir == "" {
		return nil
	}
	build, err := buildHash()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", b.w.name, b.seed, build))
	var old record
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if old.Model != nil && *old.Model != *b.model {
		return fmt.Errorf("model counters %+v, an earlier run of this seed had %+v", *b.model, *old.Model)
	}
	if old.Trace != nil && b.trace != nil && !sameJSON(old.Trace, b.trace) {
		return fmt.Errorf("trace counters %+v, an earlier run of this seed had %+v", *b.trace, *old.Trace)
	}
	rec := record{Model: b.model, Trace: old.Trace}
	if b.trace != nil {
		rec.Trace = b.trace
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildHash identifies the running binary by a hash of its contents.
func buildHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// checkTable1Artifact compares the model totals with the committed
// bench/BENCH_table1.json, which hetbench wrote for the same seed.
func checkTable1Artifact(root string, m *modelCounts) error {
	data, err := os.ReadFile(filepath.Join(root, "bench", "BENCH_table1.json"))
	if err != nil {
		return err
	}
	var a struct {
		Seed  uint64 `json:"seed"`
		Model struct {
			Rounds     int     `json:"rounds"`
			TotalWords int64   `json:"total_words"`
			Makespan   float64 `json:"makespan"`
		} `json:"model"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	if a.Seed != table1CheckSeed {
		return fmt.Errorf("artifact seed %d, want %d", a.Seed, table1CheckSeed)
	}
	if m.Rounds != a.Model.Rounds || m.Words != a.Model.TotalWords || m.Makespan != a.Model.Makespan {
		return fmt.Errorf("rounds/words/makespan %d/%d/%v, artifact has %d/%d/%v",
			m.Rounds, m.Words, m.Makespan, a.Model.Rounds, a.Model.TotalWords, a.Model.Makespan)
	}
	return nil
}

// endToEnd is the untraced run's output: medians over the repetitions, and
// for set-up over the extra set-ups.
func endToEnd(reps []*sample, setups []float64) map[string]metric {
	m := reps[0].model
	return map[string]metric{
		"wall_s":         {median(reps, func(s *sample) float64 { return s.wall }), "s"},
		"cpu_s":          {median(reps, func(s *sample) float64 { return s.cpu }), "s"},
		"setup_s":        {medianOf(setups), "s"},
		"alloc_bytes":    {median(reps, func(s *sample) float64 { return float64(s.allocBytes) }), "bytes"},
		"allocs":         {median(reps, func(s *sample) float64 { return float64(s.allocs) }), "count"},
		"peak_rss_mb":    {median(reps, func(s *sample) float64 { return s.peakRSS }) / (1 << 20), "MB"},
		"model_rounds":   {float64(m.Rounds), "rounds"},
		"model_words":    {float64(m.Words), "words"},
		"model_makespan": {m.Makespan, "word-time"},
	}
}

// coreAlgs and sublinearAlgs name every call any workload makes, so each
// traced run prints the same metric set (zero where a workload lacks it).
var (
	coreAlgs      = []string{"connectivity", "mst", "approx_mst", "spanner", "mincut", "approx_mincut", "coloring", "mis", "matching", "matching_filtering"}
	sublinearAlgs = []string{"connectivity", "mst", "spanner", "coloring", "mis", "matching"}
)

// perLayer is the traced run's output. Host times of the layers come from
// the traced repetitions (spans are the benchmark's own, around each public
// call); the runtime and ns-per-round figures come from the untraced ones.
func perLayer(plain, traced []*sample, split map[string]float64, probes map[string]float64, b *bench) map[string]metric {
	m, tc := b.model, b.trace
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	put("graph.gen_s", median(traced, func(s *sample) float64 { return s.gen }), "s")
	put("graph.check_s", median(traced, func(s *sample) float64 { return s.check }), "s")
	put("mpc.new_s", median(traced, func(s *sample) float64 { return s.build }), "s")
	put("mpc.rounds", float64(m.Rounds), "rounds")
	put("mpc.messages", float64(m.Messages), "count")
	put("mpc.words", float64(m.Words), "words")
	put("mpc.max_recv_words", float64(m.MaxRecvWords), "words")
	put("mpc.silent_rounds", float64(tc.SilentRounds), "rounds")
	plainWall := median(plain, func(s *sample) float64 { return s.wall })
	put("mpc.ns_per_round", plainWall*1e9/float64(max(m.Rounds, 1)), "ns")
	put("mpc.busy_imbalance", m.BusyImbalance, "ratio")
	put("fault.crashes", float64(m.Crashes), "count")
	put("fault.checkpoints", float64(m.Checkpoints), "count")
	put("fault.recovery_rounds", float64(m.RecoveryRounds), "rounds")
	put("fault.replication_words", float64(m.ReplicationWords), "words")
	for _, p := range primPhases {
		put("prims."+p+".rounds", float64(tc.Phases[p][0]), "rounds")
		put("prims."+p+".words", float64(tc.Phases[p][1]), "words")
	}
	for name, v := range probes {
		unit := "s"
		if strings.HasSuffix(name, "_allocs") {
			unit = "count"
		}
		put(name, v, unit)
	}
	for _, alg := range coreAlgs {
		name := "core." + alg + "_s"
		put(name, median(traced, func(s *sample) float64 { return s.spans[name] }), "s")
	}
	for _, alg := range sublinearAlgs {
		name := "sublinear." + alg + "_s"
		put(name, median(traced, func(s *sample) float64 { return s.spans[name] }), "s")
	}
	for name, v := range split {
		put(name, v, "ratio")
	}
	put("runtime.gc_cycles", median(plain, func(s *sample) float64 { return float64(s.gcCycles) }), "count")
	put("runtime.gc_pause_s", median(plain, func(s *sample) float64 { return s.gcPause }), "s")
	put("trace.overhead_s", median(traced, func(s *sample) float64 { return s.wall })-plainWall, "s")
	put("failed_frac", float64(b.failed)/float64(b.attempted), "ratio")
	return out
}

func median(reps []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(reps))
	for i, s := range reps {
		xs[i] = f(s)
	}
	return medianOf(xs)
}

// cpuTime is the process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of this
// process, so that peakRSS covers one repetition's calls and can be taken
// as a median. The process-wide mark alone is one sample per run, and it
// jumps by a fifth from run to run with where the GC cycles land. It
// reports whether the reset took effect; where it did not, peakRSS is the
// high-water mark since the process started.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the resident-set high-water mark in bytes: VmHWM from
// /proc/self/status, or the getrusage maximum where that is unreadable.
func peakRSS() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kib); err == nil {
					return kib * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// fingerprint describes the host a result was measured on.
func fingerprint(workload string, seed uint64, traced int, seconds float64) map[string]any {
	cpuModel := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":       workload,
		"seed":           seed,
		"held_back_seed": heldBackSeed,
		"trace":          traced,
		"seconds":        seconds,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu_model":      cpuModel,
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
