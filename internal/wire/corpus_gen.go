//go:build ignore

// corpus_gen regenerates the committed seed corpora of FuzzCodecRoundTrip
// and FuzzReadGraph:
//
//	go run ./internal/wire/corpus_gen.go
//
// The codec seeds cover every payload kind, multi-frame streams, and the
// three typed-error shapes (truncated, corrupt, oversized); the graph-block
// seeds cover valid weighted, unweighted and empty graphs, edges the text
// reader rejects (endpoint out of range, non-positive weight), a truncated
// body, an oversized length claim and a block of the wrong kind. A plain
// `go test` run replays all of them as regression inputs.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hetmpc/internal/graph"
	"hetmpc/internal/wire"
)

func frame(m wire.Message) []byte {
	b, err := wire.AppendMessage(nil, &m)
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func main() {
	seeds := [][]byte{
		frame(wire.Message{From: -1, To: 0, Kind: wire.KindNil}),
		frame(wire.Message{From: 0, To: 1, Words: 1, Kind: wire.KindInt64, I64: -7}),
		frame(wire.Message{From: 1, To: 2, Words: 1, Kind: wire.KindUint64, U64: 1 << 63}),
		frame(wire.Message{From: 2, To: -1, Words: 3, Kind: wire.KindInt64Slice, I64s: []int64{1, -2, 3}}),
		frame(wire.Message{From: 3, To: 4, Words: 2, Kind: wire.KindUint64Slice, U64s: []uint64{9, ^uint64(0)}}),
		frame(wire.Message{From: 4, To: 5, Words: 2, Kind: wire.KindBytes, Bytes: []byte("seed bytes")}),
		frame(wire.Message{From: -1, To: 6, Words: 1, Kind: wire.KindRef, Ref: 12}),
	}
	// A two-frame stream and its truncation.
	stream := append(frame(wire.Message{Kind: wire.KindInt64, I64: 42}),
		frame(wire.Message{Kind: wire.KindBytes, Bytes: []byte("tail")})...)
	seeds = append(seeds, stream, stream[:len(stream)-3])
	// Corrupt shapes: bad magic, bad version, bad kind, plen/kind clash,
	// oversized plen.
	bad := func(off int, v byte) []byte {
		b := frame(wire.Message{From: 1, To: 2, Words: 1, Kind: wire.KindInt64, I64: 5})
		b[off] = v
		return b
	}
	seeds = append(seeds, bad(0, 0x00), bad(2, 99), bad(3, 250), bad(16, 3), bad(19, 0xFF))

	writeCorpus("FuzzCodecRoundTrip", seeds)
	writeCorpus("FuzzReadGraph", graphSeeds())
}

// block encodes g as a whole-graph shard block without validating it, so
// the corpus can carry graphs ReadGraph must refuse.
func block(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := wire.WriteGraph(&buf, g); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func graphSeeds() [][]byte {
	weighted := block(&graph.Graph{N: 4, Weighted: true, Edges: []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 9}}})
	return [][]byte{
		weighted,
		block(&graph.Graph{N: 3, Edges: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}}),
		block(&graph.Graph{N: 2}),
		block(&graph.Graph{N: 2, Edges: []graph.Edge{{U: 0, V: 7, W: -3}}}), // endpoint and weight both invalid
		block(&graph.Graph{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 0}}}),  // non-positive weight
		weighted[:len(weighted)-5],                                          // truncated body
		{0x18, 0xA8, 1, 1, 0x00, 0x00, 0x00, 0x04},                          // claims a 64 MiB body, holds none
		{0x18, 0xA8, 1, 2, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // a checkpoint block
	}
}

func writeCorpus(target string, seeds [][]byte) {
	dir := filepath.Join("internal", "wire", "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, s := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed%d", i+1))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d seeds to %s\n", len(seeds), dir)
}
