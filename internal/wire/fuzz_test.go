package wire

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"hetmpc/internal/graph"
)

// FuzzCodecRoundTrip fuzzes the frame codec with raw byte streams
// (committed seed corpus under testdata/fuzz): decoding must never panic;
// every failure must be one of the typed errors (ErrTruncated, ErrCorrupt,
// ErrTooLarge); and because the encoding is canonical, any input that
// decodes must re-encode to exactly the bytes consumed. The streaming
// decoder must agree with the byte-slice decoder frame for frame.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		buf, err := AppendMessage(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	two, _ := AppendMessage(nil, &Message{Kind: KindInt64, I64: 1})
	two, _ = AppendMessage(two, &Message{Kind: KindBytes, Bytes: []byte("x")})
	f.Add(two)
	f.Add(two[:len(two)-1]) // truncated tail frame
	f.Add([]byte{0x18, 0xA8, 1, 0})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := bytes.NewReader(data)
		var dec Decoder
		rest := data
		for frame := 0; ; frame++ {
			var m, sm Message
			next, err := DecodeMessage(rest, &m)
			serr := dec.ReadMessage(sr, &sm)
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("frame %d: untyped decode error %v", frame, err)
				}
				// The stream decoder must refuse the same frame: same typed
				// error, except that a clean empty tail is its io.EOF.
				if serr == nil {
					t.Fatalf("frame %d: slice decoder rejected (%v) but stream decoder accepted", frame, err)
				}
				if len(rest) == 0 && serr != io.EOF {
					t.Fatalf("frame %d: empty tail gave %v, want io.EOF", frame, serr)
				}
				return
			}
			if serr != nil {
				t.Fatalf("frame %d: stream decoder rejected (%v) what the slice decoder accepted", frame, serr)
			}
			if !payloadEqual(&m, &sm) {
				t.Fatalf("frame %d: decoders disagree: %+v vs %+v", frame, m, sm)
			}
			consumed := rest[:len(rest)-len(next)]
			re, err := AppendMessage(nil, &m)
			if err != nil {
				t.Fatalf("frame %d: re-encode of a decoded message failed: %v", frame, err)
			}
			if !bytes.Equal(re, consumed) {
				t.Fatalf("frame %d: decode∘encode not identity:\n in: %x\nout: %x", frame, consumed, re)
			}
			rest = next
			if len(rest) == 0 {
				return
			}
		}
	})
}

// FuzzReadGraph fuzzes the binary graph reader behind `hetrun -input`
// (committed seed corpus under testdata/fuzz, regenerated by corpus_gen.go):
// reading must never panic; every failure must be one of the typed errors;
// every graph it accepts must pass graph.CheckEdges, the text reader's
// validation; and WriteGraph must round-trip an accepted graph exactly.
func FuzzReadGraph(f *testing.F) {
	for _, g := range []*graph.Graph{graph.GNMWeighted(8, 12, 1), graph.Cycles(8, 2, 1)} {
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("untyped read error %v", err)
			}
			return
		}
		if err := graph.CheckEdges(g.N, g.Edges); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatalf("rewrite of an accepted graph: %v", err)
		}
		back, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("re-read of a written graph: %v", err)
		}
		if back.N != g.N || back.Weighted != g.Weighted || !slices.Equal(back.Edges, g.Edges) {
			t.Fatalf("round trip changed the graph:\n in: %+v\nout: %+v", g, back)
		}
	})
}
