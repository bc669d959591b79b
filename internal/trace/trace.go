// Package trace defines the packet-trace format shared by the Phastlane and
// electrical-baseline simulators, mirroring the paper's methodology of
// feeding both simulators the same trace files (Section 4).
//
// A trace is an ordered sequence of message records. Each record may depend
// on an earlier message (e.g. a data reply depends on the request that
// triggered it, and a core's next miss depends on its previous miss
// completing); replay injects a message only after its dependency has been
// delivered and a think time has elapsed. Makespan-style replay of such
// dependency chains is what turns per-packet latency differences into the
// "network speedup" of Fig. 10.
//
// The on-disk format is a little-endian binary stream: a 16-byte header
// ("PHTRACE1", node count, message count) followed by fixed-width records.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
)

// Magic identifies trace files.
const Magic = "PHTRACE1"

// Broadcast is the destination value marking an all-nodes multicast.
const Broadcast mesh.NodeID = -1

// Message is one trace record.
type Message struct {
	// ID is unique and dense (1..N). ID 0 is reserved for "no
	// dependency".
	ID uint64
	// EarliestCycle is the first cycle the message may inject,
	// independent of dependencies.
	EarliestCycle int64
	// Src is the injecting node.
	Src mesh.NodeID
	// Dst is the destination, or Broadcast for an all-node multicast.
	Dst mesh.NodeID
	// Op is the coherence/synthetic operation type.
	Op packet.Op
	// Dep is the ID of the message that must be fully delivered before
	// this one may inject, or 0.
	Dep uint64
	// Think is the number of cycles after the dependency's delivery
	// before this message injects (models computation between misses).
	Think int64
}

// IsBroadcast reports whether the message fans out to every node.
func (m Message) IsBroadcast() bool { return m.Dst == Broadcast }

// Trace is an in-memory trace.
type Trace struct {
	Nodes    int
	Messages []Message
}

// Validate checks trace invariants: IDs dense and ascending from 1,
// dependencies referencing earlier messages only (acyclic by construction),
// and node IDs in range.
func (t *Trace) Validate() error {
	if t.Nodes < 1 {
		return fmt.Errorf("trace: node count %d", t.Nodes)
	}
	for i, m := range t.Messages {
		if m.ID != uint64(i+1) {
			return fmt.Errorf("trace: message %d has ID %d, want %d", i, m.ID, i+1)
		}
		if m.Dep >= m.ID {
			return fmt.Errorf("trace: message %d depends on later/self message %d", m.ID, m.Dep)
		}
		if m.Src < 0 || int(m.Src) >= t.Nodes {
			return fmt.Errorf("trace: message %d src %d out of range", m.ID, m.Src)
		}
		if !m.IsBroadcast() && (m.Dst < 0 || int(m.Dst) >= t.Nodes) {
			return fmt.Errorf("trace: message %d dst %d out of range", m.ID, m.Dst)
		}
		if !m.IsBroadcast() && m.Dst == m.Src {
			return fmt.Errorf("trace: message %d is self-directed", m.ID)
		}
		if m.EarliestCycle < 0 || m.Think < 0 {
			return fmt.Errorf("trace: message %d has negative timing", m.ID)
		}
	}
	return nil
}

const recordBytes = 8 + 8 + 4 + 4 + 1 + 7 + 8 + 8 // ID, cycle, src, dst, op, pad, dep, think

// Write serialises the trace.
func Write(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(t.Nodes)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.Messages))); err != nil {
		return err
	}
	var rec [recordBytes]byte
	for _, m := range t.Messages {
		binary.LittleEndian.PutUint64(rec[0:], m.ID)
		binary.LittleEndian.PutUint64(rec[8:], uint64(m.EarliestCycle))
		binary.LittleEndian.PutUint32(rec[16:], uint32(int32(m.Src)))
		binary.LittleEndian.PutUint32(rec[20:], uint32(int32(m.Dst)))
		rec[24] = byte(m.Op)
		for i := 25; i < 32; i++ {
			rec[i] = 0
		}
		binary.LittleEndian.PutUint64(rec[32:], m.Dep)
		binary.LittleEndian.PutUint64(rec[40:], uint64(m.Think))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPrealloc bounds the records Read reserves room for before reading
// them (64 Ki records, 3.5 MiB).
const maxPrealloc = 1 << 16

// Read deserialises a trace written by Write and validates it.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, errors.New("trace: bad magic")
	}
	var nodes, count uint32
	if err := binary.Read(br, binary.LittleEndian, &nodes); err != nil {
		return nil, fmt.Errorf("trace: reading node count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading message count: %w", err)
	}
	// The count comes from the file, so it only sizes the first
	// allocation up to a bound; a longer trace grows as its records
	// actually arrive.
	t := &Trace{Nodes: int(nodes), Messages: make([]Message, 0, min(count, maxPrealloc))}
	var rec [recordBytes]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		t.Messages = append(t.Messages, Message{
			ID:            binary.LittleEndian.Uint64(rec[0:]),
			EarliestCycle: int64(binary.LittleEndian.Uint64(rec[8:])),
			Src:           mesh.NodeID(int32(binary.LittleEndian.Uint32(rec[16:]))),
			Dst:           mesh.NodeID(int32(binary.LittleEndian.Uint32(rec[20:]))),
			Op:            packet.Op(rec[24]),
			Dep:           binary.LittleEndian.Uint64(rec[32:]),
			Think:         int64(binary.LittleEndian.Uint64(rec[40:])),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
