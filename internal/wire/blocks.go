package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"hetmpc/internal/graph"
)

// Blocks are the second frame family: bulk records (graph shards, recovery
// checkpoints) that travel outside the per-round Exchange stream. They use
// their own magic so a message stream and a block stream cannot be confused
// for each other, and implement io.WriterTo / io.ReaderFrom in the
// lattigo utils/buffer shape with pooled scratch.
const (
	// BlockMagic is the block frame magic (little-endian uint16).
	BlockMagic uint16 = 0xA818
	// block header: magic(2) version(1) kind(1) blen(4).
	blockHeaderSize = 8
)

// Block kinds.
const (
	blockShard      byte = 1
	blockCheckpoint byte = 2
)

var blockScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Shard is a contiguous slice of a graph's edge list, addressed for one
// machine: edges [Offset, Offset+len(Edges)) of a graph on N vertices.
// A shard with Offset 0 covering every edge is a whole graph (WriteGraph).
type Shard struct {
	N        uint32
	Offset   uint32
	Weighted bool
	Edges    []graph.Edge
}

// Shard body: n(4) offset(4) weighted(1) nedges(4), then u(4) v(4) w(8)
// per edge.
const shardFixed = 13
const shardEdgeSize = 16

// WriteTo implements io.WriterTo: one block frame containing the shard.
func (s *Shard) WriteTo(w io.Writer) (int64, error) {
	if len(s.Edges) > (math.MaxUint32-shardFixed)/shardEdgeSize {
		return 0, fmt.Errorf("%w: %d edges", ErrTooLarge, len(s.Edges))
	}
	bp := blockScratch.Get().(*[]byte)
	defer blockScratch.Put(bp)
	b := (*bp)[:0]
	blen := shardFixed + shardEdgeSize*len(s.Edges)
	b = binary.LittleEndian.AppendUint16(b, BlockMagic)
	b = append(b, Version, blockShard)
	b = binary.LittleEndian.AppendUint32(b, uint32(blen))
	b = binary.LittleEndian.AppendUint32(b, s.N)
	b = binary.LittleEndian.AppendUint32(b, s.Offset)
	if s.Weighted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Edges)))
	for _, e := range s.Edges {
		if e.U < 0 || e.V < 0 || uint64(e.U) > math.MaxUint32 || uint64(e.V) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: edge endpoints %d-%d", ErrTooLarge, e.U, e.V)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.W))
	}
	*bp = b
	n, err := w.Write(b)
	return int64(n), err
}

// ReadFrom implements io.ReaderFrom: reads one shard block frame.
func (s *Shard) ReadFrom(r io.Reader) (int64, error) {
	body, n, err := readBlock(r, blockShard)
	if err != nil {
		return n, err
	}
	if len(body) < shardFixed {
		return n, fmt.Errorf("%w: shard body %d bytes", ErrCorrupt, len(body))
	}
	s.N = binary.LittleEndian.Uint32(body[0:4])
	s.Offset = binary.LittleEndian.Uint32(body[4:8])
	switch body[8] {
	case 0:
		s.Weighted = false
	case 1:
		s.Weighted = true
	default:
		return n, fmt.Errorf("%w: weighted flag %d", ErrCorrupt, body[8])
	}
	ne := int(binary.LittleEndian.Uint32(body[9:13]))
	if len(body) != shardFixed+shardEdgeSize*ne {
		return n, fmt.Errorf("%w: shard of %d edges in %d bytes", ErrCorrupt, ne, len(body))
	}
	if cap(s.Edges) < ne {
		s.Edges = make([]graph.Edge, ne)
	}
	s.Edges = s.Edges[:ne]
	for i := range s.Edges {
		off := shardFixed + shardEdgeSize*i
		s.Edges[i] = graph.Edge{
			U: int(binary.LittleEndian.Uint32(body[off : off+4])),
			V: int(binary.LittleEndian.Uint32(body[off+4 : off+8])),
			W: int64(binary.LittleEndian.Uint64(body[off+8 : off+16])),
		}
	}
	return n, nil
}

// Checkpoint is one machine's encoded recovery state at a checkpoint
// barrier: the opaque payload the Checkpointer contract snapshots, plus the
// modeled word count the barrier charged for it.
type Checkpoint struct {
	Machine int32 // -1 = large machine
	Round   uint32
	Words   uint32
	Payload []byte
}

// WriteTo implements io.WriterTo: one block frame containing the checkpoint.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	if len(c.Payload) > math.MaxUint32-16 {
		return 0, fmt.Errorf("%w: %d payload bytes", ErrTooLarge, len(c.Payload))
	}
	bp := blockScratch.Get().(*[]byte)
	defer blockScratch.Put(bp)
	b := (*bp)[:0]
	b = binary.LittleEndian.AppendUint16(b, BlockMagic)
	b = append(b, Version, blockCheckpoint)
	b = binary.LittleEndian.AppendUint32(b, uint32(12+len(c.Payload)))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Machine))
	b = binary.LittleEndian.AppendUint32(b, c.Round)
	b = binary.LittleEndian.AppendUint32(b, c.Words)
	b = append(b, c.Payload...)
	*bp = b
	n, err := w.Write(b)
	return int64(n), err
}

// ReadFrom implements io.ReaderFrom: reads one checkpoint block frame.
func (c *Checkpoint) ReadFrom(r io.Reader) (int64, error) {
	body, n, err := readBlock(r, blockCheckpoint)
	if err != nil {
		return n, err
	}
	if len(body) < 12 {
		return n, fmt.Errorf("%w: checkpoint body %d bytes", ErrCorrupt, len(body))
	}
	c.Machine = int32(binary.LittleEndian.Uint32(body[0:4]))
	c.Round = binary.LittleEndian.Uint32(body[4:8])
	c.Words = binary.LittleEndian.Uint32(body[8:12])
	payload := body[12:]
	if cap(c.Payload) < len(payload) {
		c.Payload = make([]byte, len(payload))
	}
	c.Payload = c.Payload[:len(payload)]
	copy(c.Payload, payload)
	return n, nil
}

// readBlock reads and validates one block frame of the wanted kind,
// returning its body. The body aliases a pooled buffer only until return,
// so it is copied out by the callers that retain it.
func readBlock(r io.Reader, want byte) (body []byte, n int64, err error) {
	var hdr [blockHeaderSize]byte
	nn, err := io.ReadFull(r, hdr[:])
	n = int64(nn)
	if err != nil {
		return nil, n, fmt.Errorf("%w: block header: %v", ErrTruncated, err)
	}
	if binary.LittleEndian.Uint16(hdr[0:2]) != BlockMagic {
		return nil, n, fmt.Errorf("%w: bad block magic 0x%04x", ErrCorrupt, binary.LittleEndian.Uint16(hdr[0:2]))
	}
	if hdr[2] != Version {
		return nil, n, fmt.Errorf("%w: unknown block version %d", ErrCorrupt, hdr[2])
	}
	if hdr[3] != want {
		return nil, n, fmt.Errorf("%w: block kind %d, want %d", ErrCorrupt, hdr[3], want)
	}
	blen := binary.LittleEndian.Uint32(hdr[4:8])
	if blen > DefaultMaxPayload {
		return nil, n, fmt.Errorf("%w: block body %d > limit %d", ErrTooLarge, blen, DefaultMaxPayload)
	}
	// The body grows with the bytes actually read, not with the length the
	// header claims: a short stream costs what it holds.
	body, err = io.ReadAll(io.LimitReader(r, int64(blen)))
	n += int64(len(body))
	if err != nil {
		return nil, n, fmt.Errorf("%w: block body: %v", ErrTruncated, err)
	}
	if len(body) < int(blen) {
		return nil, n, fmt.Errorf("%w: block body %d of %d bytes", ErrTruncated, len(body), blen)
	}
	return body, n, nil
}

// WriteGraph writes g as one whole-graph shard block. The binary format is
// the bulk-transfer twin of the text format in internal/graph: hetrun
// distinguishes the two by sniffing the magic.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	if g.N < 0 || uint64(g.N) > math.MaxUint32 {
		return fmt.Errorf("%w: %d vertices", ErrTooLarge, g.N)
	}
	s := Shard{N: uint32(g.N), Offset: 0, Weighted: g.Weighted, Edges: g.Edges}
	_, err := s.WriteTo(w)
	return err
}

// ReadGraph reads a whole-graph shard block written by WriteGraph. Its
// edges pass the same graph.CheckEdges validation as the text format; a
// block that fails it is ErrCorrupt.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	var s Shard
	if _, err := s.ReadFrom(r); err != nil {
		return nil, err
	}
	if err := graph.CheckEdges(int(s.N), s.Edges); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return graph.New(int(s.N), s.Edges, s.Weighted), nil
}

// SniffBlock reports whether br's next bytes start a wire block frame
// (vs. e.g. the text graph format). It peeks without consuming.
func SniffBlock(br *bufio.Reader) bool {
	b, err := br.Peek(2)
	return err == nil && binary.LittleEndian.Uint16(b) == BlockMagic
}
