package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"hetmpc/internal/graph"
)

// TestParse covers the -transport spec grammar.
func TestParse(t *testing.T) {
	for _, spec := range []string{"", "inproc", " inproc "} {
		tr, err := Parse(spec)
		if err != nil || tr != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil transport", spec, tr, err)
		}
	}
	if tr, err := Parse("pipe"); err != nil || tr.Name() != "pipe" {
		t.Errorf("Parse(pipe) = %v, %v", tr, err)
	}
	if tr, err := Parse("tcp"); err != nil || tr.Name() != "tcp" {
		t.Errorf("Parse(tcp) = %v, %v", tr, err)
	}
	if _, err := Parse("carrier-pigeon"); err == nil {
		t.Error("Parse accepted an unknown transport")
	}
}

// TestLinkNames pins the link naming convention errors rely on.
func TestLinkNames(t *testing.T) {
	if LinkName(0) != "large" || LinkName(1) != "small-0" || LinkName(5) != "small-4" {
		t.Errorf("LinkName convention drifted: %q %q %q", LinkName(0), LinkName(1), LinkName(5))
	}
}

// TestTransportLinks drives raw bytes through every real transport's links:
// per-slot naming, write→read delivery, independence of links, and error
// (not hang) after Close.
func TestTransportLinks(t *testing.T) {
	for _, mk := range []func() Transport{func() Transport { return NewPipe() }, func() Transport { return NewTCP() }} {
		tr := mk()
		t.Run(tr.Name(), func(t *testing.T) {
			defer tr.Close()
			links, err := tr.Open(4)
			if err != nil {
				t.Fatal(err)
			}
			if len(links) != 4 {
				t.Fatalf("opened %d links, want 4", len(links))
			}
			for slot, l := range links {
				if l.Name() != LinkName(slot) {
					t.Errorf("slot %d named %q, want %q", slot, l.Name(), LinkName(slot))
				}
				msg := []byte(l.Name() + " payload")
				done := make(chan error, 1)
				go func() {
					_, werr := l.Write(msg)
					done <- werr
				}()
				got := make([]byte, len(msg))
				if _, err := io.ReadFull(l, got); err != nil {
					t.Fatalf("%s: read: %v", l.Name(), err)
				}
				if err := <-done; err != nil {
					t.Fatalf("%s: write: %v", l.Name(), err)
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("%s: delivered %q, want %q", l.Name(), got, msg)
				}
			}
			// A closed link must error on both ends, never block.
			if err := links[1].Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := links[1].Write([]byte("x")); err == nil {
				t.Error("write to a closed link succeeded")
			}
			if _, err := links[1].Read(make([]byte, 1)); err == nil {
				t.Error("read from a closed link succeeded")
			}
			// Other links are unaffected.
			go links[2].Write([]byte("ok"))
			got := make([]byte, 2)
			if _, err := io.ReadFull(links[2], got); err != nil || string(got) != "ok" {
				t.Errorf("sibling link broken after close: %q, %v", got, err)
			}
		})
	}
}

// TestShardBlockRoundTrip checks the graph-shard block codec, including the
// chunked-reader path and sniffing against the text format.
func TestShardBlockRoundTrip(t *testing.T) {
	g := graph.GNMWeighted(100, 300, 9)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	stream := bytes.Clone(buf.Bytes())

	got, err := ReadGraph(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || got.Weighted != g.Weighted || len(got.Edges) != len(g.Edges) {
		t.Fatalf("graph shape changed: %d/%d/%d vs %d/%d/%d",
			got.N, len(got.Edges), boolInt(got.Weighted), g.N, len(g.Edges), boolInt(g.Weighted))
	}
	for i, e := range g.Edges {
		if got.Edges[i] != e {
			t.Fatalf("edge %d: %v vs %v", i, got.Edges[i], e)
		}
	}

	// Dribbled reads must still frame correctly.
	var s Shard
	if _, err := s.ReadFrom(&chunkReader{r: bytes.NewReader(stream), sizes: []int{1, 3}}); err != nil {
		t.Fatalf("chunked shard read: %v", err)
	}
	if int(s.N) != g.N || len(s.Edges) != len(g.Edges) || s.Offset != 0 {
		t.Fatal("chunked shard read mismatch")
	}

	// A mid-graph shard keeps its addressing.
	part := Shard{N: 100, Offset: 17, Weighted: true, Edges: g.Edges[17:40]}
	var pb bytes.Buffer
	if _, err := part.WriteTo(&pb); err != nil {
		t.Fatal(err)
	}
	var back Shard
	if _, err := back.ReadFrom(&pb); err != nil {
		t.Fatal(err)
	}
	if back.Offset != 17 || len(back.Edges) != 23 || back.Edges[0] != g.Edges[17] {
		t.Fatalf("shard addressing lost: %+v", back)
	}

	if !SniffBlock(bufio.NewReader(bytes.NewReader(stream))) {
		t.Error("SniffBlock missed a block stream")
	}
	var text bytes.Buffer
	if err := graph.Write(&text, g); err != nil {
		t.Fatal(err)
	}
	if SniffBlock(bufio.NewReader(bytes.NewReader(text.Bytes()))) {
		t.Error("SniffBlock misread the text format as binary")
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCheckpointBlockRoundTrip checks the checkpoint block codec and its
// typed error behavior on malformed input.
func TestCheckpointBlockRoundTrip(t *testing.T) {
	ck := Checkpoint{Machine: -1, Round: 12, Words: 512, Payload: []byte("opaque state")}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := bytes.Clone(buf.Bytes())
	var got Checkpoint
	if _, err := got.ReadFrom(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	if got.Machine != -1 || got.Round != 12 || got.Words != 512 || !bytes.Equal(got.Payload, ck.Payload) {
		t.Fatalf("checkpoint mismatch: %+v", got)
	}

	// Typed errors: truncation, magic, cross-kind confusion.
	if _, err := got.ReadFrom(bytes.NewReader(stream[:5])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated block: %v, want ErrTruncated", err)
	}
	bad := bytes.Clone(stream)
	bad[0] = 0
	if _, err := got.ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v, want ErrCorrupt", err)
	}
	var s Shard
	if _, err := s.ReadFrom(bytes.NewReader(stream)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("checkpoint read as shard: %v, want ErrCorrupt", err)
	}
	// A message frame is not a block frame.
	mf, err := AppendMessage(nil, &Message{Kind: KindNil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.ReadFrom(bytes.NewReader(mf)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("message frame read as block: %v, want ErrCorrupt", err)
	}
	// A header claiming the largest allowed body over an empty stream is
	// truncated, and costs what the stream holds rather than what it claims.
	claim := []byte{0x18, 0xA8, Version, blockCheckpoint, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(claim[4:], DefaultMaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = got.ReadFrom(bytes.NewReader(claim))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("empty body behind a %d-byte claim: %v, want ErrTruncated", DefaultMaxPayload, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading an empty body allocated %d bytes", grew)
	}
	if !strings.HasPrefix(ErrCorrupt.Error(), "wire:") {
		t.Error("error strings should carry the wire: prefix")
	}
}
