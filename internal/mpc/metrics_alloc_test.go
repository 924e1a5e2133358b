package mpc

import (
	"testing"

	"hetmpc/internal/metrics"
	"hetmpc/internal/sched"
)

// TestNilMetricsZeroAlloc pins the nil-registry contract at the allocation
// level: every metrics hook in the engine sits behind a `c.mx != nil` guard
// (the barrier events behind emit's), so a cluster built without
// Config.Metrics executes the exact pre-metrics instruction stream. The absolute counts below are the engine's own
// steady-state allocations (the returned inbox slices) measured before the
// metrics hooks existed; a guard that slips — building a label slice or
// boxing a value before the nil check — shows up here as a count bump.
//
// The pins hold under every placement policy's round barrier, on a
// straggler profile where the adaptive estimator and the speculation scan
// have real work: the policy state is per-cluster scratch, never per-round
// allocation.
func TestNilMetricsZeroAlloc(t *testing.T) {
	k := Config{N: 64, M: 256}.DeriveK()
	for _, tc := range []struct {
		name    string
		profile *Profile
		spec    string
	}{
		{"uniform", nil, ""},
		{"cap", StragglerProfile(k, 2, 8), "cap"},
		{"adaptive", StragglerProfile(k, 2, 8), "adaptive"},
		{"speculate:1", StragglerProfile(k, 2, 8), "speculate:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pol sched.Policy
			if tc.spec != "" {
				var err error
				if pol, err = sched.Parse(tc.spec); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{N: 64, M: 256, Seed: 1, Profile: tc.profile, Placement: pol}
			c := newTest(t, cfg)
			outs := ringRound(c, 2)
			for i := 0; i < 5; i++ {
				if _, _, err := c.Exchange(outs, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Historically 4: the flat-offset delivery rework (DESIGN.md §14)
			// removed the per-delivery slot-map pool round-trip, leaving the
			// two caller-owned inbox allocations plus one pool interaction in
			// planning.
			if got := testing.AllocsPerRun(100, func() { c.Exchange(outs, nil) }); got != 3 {
				t.Errorf("unmetered exchange allocates %v per round, want 3", got)
			}
			if got := testing.AllocsPerRun(100, func() { c.Exchange(nil, nil) }); got != 1 {
				t.Errorf("unmetered silent round allocates %v, want the pre-metrics 1", got)
			}

			// The metered silent path uses only prebound instruments, so it
			// must allocate exactly as much as the unmetered one — the cheap
			// proof that the prebinding strategy works (the metered exchange
			// path is allowed its one per-round phase-counter lookup).
			cfg.Metrics = metrics.New()
			cm := newTest(t, cfg)
			for i := 0; i < 5; i++ {
				if _, _, err := cm.Exchange(nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(100, func() { cm.Exchange(nil, nil) }); got != 1 {
				t.Errorf("metered silent round allocates %v, want 1 (prebound instruments only)", got)
			}
		})
	}
}

// BenchmarkExchangeNilMetrics / BenchmarkExchangeMetered measure the
// per-round cost of the metrics hooks: the nil case is the engine baseline,
// the metered case carries the prebound-instrument updates plus one
// phase-counter lookup per round.
func benchmarkExchange(b *testing.B, reg *metrics.Registry) {
	c, err := New(Config{N: 64, M: 256, Seed: 1, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	outs := make([][]Msg, c.K())
	for i := 0; i < c.K(); i++ {
		outs[i] = []Msg{{To: (i + 1) % c.K(), Words: 2, Data: i}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Exchange(outs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExchangeNilMetrics(b *testing.B) { benchmarkExchange(b, nil) }
func BenchmarkExchangeMetered(b *testing.B)    { benchmarkExchange(b, metrics.New()) }
