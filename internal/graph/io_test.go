package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		GNMWeighted(50, 200, 3),
		GNM(30, 60, 5),
		New(4, nil, false),
		Cycles(60, 2, 7),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != g.N || got.M() != g.M() || got.Weighted != g.Weighted {
			t.Fatalf("dims mismatch: %d/%d vs %d/%d", got.N, got.M(), g.N, g.M())
		}
		want := map[int64]int64{}
		for _, e := range g.Edges {
			want[e.Key(g.N)] = e.W
		}
		for _, e := range got.Edges {
			if want[e.Key(g.N)] != e.W {
				t.Fatalf("edge %v lost or reweighted", e)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not-a-graph 3 1 0\n0 1 1\n",
		"hetmpc-graph 3 1 0\n0 9 1\n",            // endpoint out of range
		"hetmpc-graph 3 1 0\n0 1 0\n",            // non-positive weight
		"hetmpc-graph 3 2 0\n0 1 1\n",            // truncated edge list
		"hetmpc-graph -1 0 0\n",                  // negative n
		"hetmpc-graph 2 4611686018427387904 0\n", // edge count far beyond the file
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

// FuzzRead fuzzes the text graph reader behind `hetrun -input` (committed
// seed corpus under testdata/fuzz): reading must never panic, every graph
// it accepts must pass CheckEdges, and Write must round-trip an accepted
// graph exactly.
func FuzzRead(f *testing.F) {
	for _, g := range []*Graph{GNMWeighted(8, 12, 1), Cycles(8, 2, 1)} {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, data string) {
		g, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := CheckEdges(g.N, g.Edges); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of a written graph: %v", err)
		}
		if back.N != g.N || back.Weighted != g.Weighted || !slices.Equal(back.Edges, g.Edges) {
			t.Fatalf("round trip changed the graph:\n in: %+v\nout: %+v", g, back)
		}
	})
}
