package mpc

import (
	"slices"

	"hetmpc/internal/trace"
)

// Span is a phase-scoped measurement window opened by Cluster.Span. It
// replaces the hand-rolled `before := c.Stats()` / diff pattern: End
// returns the Stats delta accumulated inside the scope, and — when the
// cluster was built with Config.Trace — every round executed inside the
// scope is tagged with the span's "/"-joined path in the trace timeline.
//
// Spans nest: a round is attributed to the innermost open span, so the
// per-phase sums of a trace partition the totals instead of double-counting
// the way nested before/diff snapshots did. End closes every span opened
// inside the scope as well (by depth), so an error return that skipped an
// inner End cannot corrupt the attribution of later rounds; ending with
// `defer sp.End()` (or a defer that consumes the delta) is always safe.
type Span struct {
	c      *Cluster
	before Stats
	depth  int
	ended  bool
	delta  Stats
}

// Span opens a phase scope named name and returns its handle. With a nil
// Config.Trace the span still measures (End returns the Stats delta) at
// zero cost to the simulation; with tracing enabled it additionally tags
// every round run before End with the span path.
func (c *Cluster) Span(name string) *Span {
	s := &Span{c: c, before: c.stats}
	if c.tr != nil {
		s.depth = c.tr.Depth()
		c.tr.Push(name)
	}
	return s
}

// End closes the span and returns the Stats accumulated inside it:
// additive fields (Rounds, Messages, TotalWords, Makespan, the fault and
// speculation counters) are deltas over the scope; the running maxima
// (MaxSendWords, MaxRecvWords) carry the cluster's current values, since a
// windowed maximum cannot be recovered from two snapshots. End is
// idempotent — the first call fixes the delta and later calls return it.
func (s *Span) End() Stats {
	if s.ended {
		return s.delta
	}
	s.ended = true
	if s.c.tr != nil {
		s.c.tr.Truncate(s.depth)
	}
	now := s.c.stats
	s.delta = Stats{
		Rounds:           now.Rounds - s.before.Rounds,
		Messages:         now.Messages - s.before.Messages,
		TotalWords:       now.TotalWords - s.before.TotalWords,
		MaxSendWords:     now.MaxSendWords,
		MaxRecvWords:     now.MaxRecvWords,
		Makespan:         now.Makespan - s.before.Makespan,
		Crashes:          now.Crashes - s.before.Crashes,
		RecoveryRounds:   now.RecoveryRounds - s.before.RecoveryRounds,
		Checkpoints:      now.Checkpoints - s.before.Checkpoints,
		ReplicationWords: now.ReplicationWords - s.before.ReplicationWords,
		SpeculationWords: now.SpeculationWords - s.before.SpeculationWords,
		WireBytes:        now.WireBytes - s.before.WireBytes,
	}
	return s.delta
}

// Trace returns the cluster's trace collector (Config.Trace), nil when the
// run is untraced.
func (c *Cluster) Trace() *trace.Collector { return c.tr }

// slotMachine converts an engine slot (0 = large, 1+i = small i) to the
// trace machine-id convention; pass -1 for "no machine".
func slotMachine(slot int) int {
	switch {
	case slot < 0:
		return trace.None
	case slot == 0:
		return trace.Large
	default:
		return slot - 1
	}
}

// emit charges one makespan contribution at its serial barrier point: an
// exchange round (silent or not), a checkpoint barrier, or one victim's
// crash recovery. r is the contribution's only description. emit folds its
// additive fields into Stats and hands the same value to every installed
// consumer — the trace collector, the metrics registry and an adaptive
// placement estimator — so Σ trace = Stats and Σ metrics = Stats hold by
// construction rather than by reconciliation (DESIGN.md §9).
//
// The round clock and the running maxima (Rounds, MaxSendWords,
// MaxRecvWords) are not contributions and stay with Exchange. r's
// per-slot slices may alias live cluster scratch (the exchange counters,
// c.roundBusy) that the next barrier reuses: the collector gets copies,
// the metrics and the estimator read them before emit returns. replay is a
// recovery's replayed work rounds, the one published figure a record does
// not carry; 0 on every other event.
func (c *Cluster) emit(r trace.Round, replay int) {
	st := &c.stats
	st.Messages += int64(r.Messages)
	st.TotalWords += r.Words
	st.Makespan += r.Makespan
	st.SpeculationWords += r.SpecWords
	st.Crashes += r.Crashes
	st.RecoveryRounds += r.RecoveryRounds
	st.Checkpoints += r.Checkpoints
	st.ReplicationWords += r.ReplicationWords
	if c.tr != nil {
		r.Phase = c.tr.Phase()
		rec := r
		rec.SendWords = slices.Clone(r.SendWords)
		rec.RecvWords = slices.Clone(r.RecvWords)
		rec.Busy = slices.Clone(r.Busy)
		c.tr.Add(rec)
	}
	if c.mx != nil {
		c.observe(r, replay)
	}
	// Adaptive placement's snapshot-and-switch (DESIGN.md §10): fold the
	// round into the estimator and swap the recomputed shares in. Rounds
	// that moved no word carry no speed information; checkpoint and
	// recovery traffic is the recovery protocol's, not the placement
	// primitives', so those events are not observed.
	if c.est != nil && r.Kind == trace.KindExchange && r.Words > 0 {
		c.est.Observe(r)
		c.refreshPlaceShare()
	}
}
