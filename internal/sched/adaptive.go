package sched

import (
	"fmt"
	"math"
	"strconv"

	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// Adaptive is the online placement policy: Throughput's min-makespan split,
// but recomputed every round from measured per-word costs instead of the
// declared profile. An EWMA Estimator folds each round's trace-shaped
// observation (words moved, busy time per machine) into a per-machine cost
// estimate, and the simulator swaps the recomputed shares in at the round
// barrier — a snapshot-and-switch: every placement decision inside a round
// sees one consistent share vector, and the switch happens at the same
// serial point of every run, so adaptive runs stay bit-identical under any
// GOMAXPROCS (DESIGN.md §10).
//
// Before the first observation the estimate is the declared profile, so
// Shares — the static seed placement — is exactly Throughput's. Two exact
// degenerations anchor the policy (both golden-tested):
//
//   - Alpha = 0 freezes the estimator: est += 0·(measured − est) never
//     moves, every round recomputes the same shares, and the run is
//     bit-identical to static Throughput on any profile;
//   - a truthful profile measures back the declared costs exactly
//     (busy_i = w_i·cost_i, so busy_i/w_i = cost_i with no rounding when
//     the costs are integers), the EWMA is a fixed point, and adaptive is
//     again bit-identical to Throughput.
//
// Where the declared profile is wrong — misreported speeds, transient
// slowdown windows the fault plan opens mid-run — the estimate converges to
// the effective costs at rate Alpha per observed round, which is what E30
// and E31 measure. Adaptive never speculates (Speculation = 0); it moves
// future placement instead of mirroring the current round.
type Adaptive struct {
	// Alpha is the EWMA gain in [0,1]: est += Alpha·(measured − est) per
	// observed round. 0 freezes the declared estimate (static Throughput);
	// 1 trusts only the latest round. Parse fills DefaultAlpha for the bare
	// "adaptive" spec.
	Alpha float64
}

// DefaultAlpha is the EWMA gain of the bare "adaptive" CLI spec: halfway
// between the frozen estimator (0) and last-round-only (1), it converges to
// a 4× misreport within a couple of observed rounds while still damping
// single-round traffic noise.
const DefaultAlpha = 0.5

// Name implements Policy. The rendered form is the canonical spec:
// Parse(a.Name()) reproduces the policy exactly (fuzz-tested).
func (a Adaptive) Name() string {
	return "adaptive:" + strconv.FormatFloat(a.Alpha, 'g', -1, 64)
}

// Shares implements Policy: the static seed placement, computed from the
// declared profile exactly like Throughput (the estimator has seen nothing
// yet when New builds the cluster).
func (a Adaptive) Shares(m Machines) ([]float64, error) {
	return throughputShares(m, nil)
}

// Speculation implements Policy: Adaptive never mirrors shards.
func (a Adaptive) Speculation() int { return 0 }

// NewEstimator implements OnlinePolicy: an estimator seeded with the
// declared per-word costs, validated like Throughput's Shares.
func (a Adaptive) NewEstimator(m Machines) (*Estimator, error) {
	if !(a.Alpha >= 0) || a.Alpha > 1 {
		return nil, fmt.Errorf("sched: adaptive: alpha %v outside [0,1]", a.Alpha)
	}
	if _, err := throughputShares(m, nil); err != nil {
		return nil, err
	}
	e := &Estimator{
		alpha:    a.Alpha,
		capShare: append([]float64(nil), m.CapShare...),
		declared: append([]float64(nil), m.InvCost...),
		est:      append([]float64(nil), m.InvCost...),
	}
	return e, nil
}

// OnlinePolicy is a Policy whose shares adapt to per-round measurements:
// the simulator builds one Estimator per cluster, feeds it every exchange
// round's trace-shaped observation at the round barrier, and swaps the
// recomputed shares in before the next round's placement decisions
// (mpc.Cluster, DESIGN.md §10). Static policies simply don't implement it.
type OnlinePolicy interface {
	Policy
	NewEstimator(m Machines) (*Estimator, error)
}

// Estimator is the online half of an Adaptive policy: an EWMA per-machine
// per-word cost estimate, seeded with the declared profile and updated from
// trace.Round-shaped observations. It is not safe for concurrent use — the
// model is synchronous rounds, and the simulator observes on the round
// barrier, serially.
type Estimator struct {
	alpha    float64
	capShare []float64
	declared []float64 // declared per-word costs; the Reset target
	est      []float64 // EWMA per-word cost estimate, per small machine
	rounds   int       // observations folded in since the last Reset

	// Observability instruments (SetMetrics); nil = unmetered, the
	// zero-overhead default.
	resplits *metrics.Counter
	estDelta *metrics.Histogram
}

// SetMetrics publishes the estimator's activity through reg:
// sched_resplits_total counts share recomputations (every Shares call — one
// per observed round at the simulator's barrier, plus resets), and the
// sched_estimate_delta histogram records |measured − estimate| per machine
// per observation, the convergence signal of the EWMA. A nil reg leaves the
// estimator unmetered; the estimate arithmetic is identical either way.
func (e *Estimator) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	e.resplits = reg.Counter("sched_resplits_total")
	e.estDelta = reg.Histogram("sched_estimate_delta", metrics.ExpBuckets(1e-3, 10, 8))
}

// K returns the number of machines the estimator tracks.
func (e *Estimator) K() int { return len(e.est) }

// Alpha returns the EWMA gain.
func (e *Estimator) Alpha() float64 { return e.alpha }

// Rounds returns how many observations Observe has folded in since the
// last Reset.
func (e *Estimator) Rounds() int { return e.rounds }

// Estimate returns the current per-word cost estimate of small machine i.
func (e *Estimator) Estimate(i int) float64 { return e.est[i] }

// SetEstimate overrides machine i's cost estimate (tests drive the
// estimator to arbitrary EWMA states with it). The value must be positive
// and finite with a finite reciprocal — the invariant Observe maintains
// (a subnormal cost would overflow the throughput inversion in Shares).
func (e *Estimator) SetEstimate(i int, cost float64) error {
	if !(cost > 0) || math.IsInf(cost, 0) || math.IsInf(1/cost, 0) {
		return fmt.Errorf("sched: estimator: cost %v for machine %d, want positive finite", cost, i)
	}
	e.est[i] = cost
	return nil
}

// Reset restores the declared-profile estimate (the state of a freshly
// built estimator). The simulator calls it from ResetStats, so a reset run
// re-adapts from scratch exactly as if the cluster had been rebuilt.
func (e *Estimator) Reset() {
	copy(e.est, e.declared)
	e.rounds = 0
}

// Observe folds one exchange round into the estimate. r uses the trace
// slot convention (slot 0 = large machine, slot 1+i = small machine i);
// only SendWords, RecvWords and Busy are read. The simulator passes the
// round's barrier event itself, whose slices alias engine scratch that the
// next round reuses, so Observe reads them and keeps none. For each machine that
// moved words this round, the measured per-word cost busy/words updates the
// EWMA: est += alpha·(measured − est). Machines with no traffic keep their
// estimate — a silent machine carries no speed information. With alpha = 0
// the update is an exact no-op, preserving bit-identity with Throughput.
// The large machine (slot 0) is never estimated: it is the coordinator,
// not a placement target.
func (e *Estimator) Observe(r trace.Round) {
	observed := false
	for i := range e.est {
		slot := 1 + i
		if slot >= len(r.Busy) {
			break
		}
		var w int
		if slot < len(r.SendWords) {
			w += r.SendWords[slot]
		}
		if slot < len(r.RecvWords) {
			w += r.RecvWords[slot]
		}
		if w <= 0 || !(r.Busy[slot] > 0) {
			continue
		}
		measured := r.Busy[slot] / float64(w)
		e.estDelta.Observe(math.Abs(measured - e.est[i]))
		e.est[i] += e.alpha * (measured - e.est[i])
		observed = true
	}
	if observed {
		e.rounds++
	}
}

// Shares recomputes the throughput-style shares from the current estimate:
// share_i ∝ min(CapShare_i, 1/est_i normalized to the fastest machine) —
// the same formula, clip and float operations as Throughput.Shares, so an
// estimator still at its declared seed returns Throughput's shares
// bit-identically. dst is reused when it has the right length (the
// simulator passes its live share vector: snapshot-and-switch at the round
// barrier); otherwise a fresh slice is returned. Observe keeps every
// estimate positive and finite, so recomputation cannot fail.
func (e *Estimator) Shares(dst []float64) []float64 {
	e.resplits.Inc()
	shares, err := throughputShares(Machines{CapShare: e.capShare, InvCost: e.est}, dst)
	if err != nil {
		// Unreachable through Observe/SetEstimate, which guard positivity;
		// fail loudly rather than return a corrupt placement.
		panic(err)
	}
	return shares
}
