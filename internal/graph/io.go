package graph

import (
	"bufio"
	"fmt"
	"io"
)

// Write emits the graph in the repository's plain text format:
//
//	hetmpc-graph <n> <m> <weighted:0|1>
//	<u> <v> <w>      (one line per edge)
//
// The format is consumed by Read and by cmd/hetrun -input.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	weighted := 0
	if g.Weighted {
		weighted = 1
	}
	if _, err := fmt.Fprintf(bw, "hetmpc-graph %d %d %d\n", g.N, len(g.Edges), weighted); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph written by Write. The header's edge count is only a
// loop bound: storage grows with the edges actually read, so a header
// claiming more edges than the file holds fails on the missing edge rather
// than preallocating for it. Every edge passes CheckEdges.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var (
		magic    string
		n, m, wf int
	)
	if _, err := fmt.Fscan(br, &magic, &n, &m, &wf); err != nil {
		return nil, fmt.Errorf("graph: bad header: %w", err)
	}
	if magic != "hetmpc-graph" {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative dimensions")
	}
	var edges []Edge
	for i := 0; i < m; i++ {
		var u, v int
		var w int64
		if _, err := fmt.Fscan(br, &u, &v, &w); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if err := CheckEdges(n, edges); err != nil {
		return nil, err
	}
	return New(n, edges, wf == 1), nil
}

// CheckEdges validates an edge list read from outside the program for a
// graph on n vertices: every endpoint in [0, n) and every weight positive.
// Both graph file formats — Read's text and the wire package's binary
// shard — call it, so they accept exactly the same graphs.
func CheckEdges(n int, edges []Edge) error {
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("graph: edge %d (%d-%d) endpoints out of range [0,%d)", i, e.U, e.V, n)
		}
		if e.W < 1 {
			return fmt.Errorf("graph: edge %d (%d-%d) has non-positive weight %d", i, e.U, e.V, e.W)
		}
	}
	return nil
}
