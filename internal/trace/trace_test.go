package trace

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"phastlane/internal/packet"
)

func sample() *Trace {
	return &Trace{
		Nodes: 64,
		Messages: []Message{
			{ID: 1, EarliestCycle: 0, Src: 0, Dst: 5, Op: packet.OpReadReq},
			{ID: 2, EarliestCycle: 0, Src: 5, Dst: 0, Op: packet.OpDataReply, Dep: 1, Think: 3},
			{ID: 3, EarliestCycle: 10, Src: 2, Dst: Broadcast, Op: packet.OpWriteReq},
			{ID: 4, EarliestCycle: 0, Src: 0, Dst: 9, Op: packet.OpReadReq, Dep: 2, Think: 12},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if got.Nodes != want.Nodes || len(got.Messages) != len(want.Messages) {
		t.Fatalf("shape mismatch: %d/%d", got.Nodes, len(got.Messages))
	}
	for i := range want.Messages {
		if got.Messages[i] != want.Messages[i] {
			t.Errorf("message %d = %+v, want %+v", i, got.Messages[i], want.Messages[i])
		}
	}
}

func TestBroadcastFlag(t *testing.T) {
	m := Message{Dst: Broadcast}
	if !m.IsBroadcast() {
		t.Error("Broadcast not detected")
	}
	if (Message{Dst: 5}).IsBroadcast() {
		t.Error("unicast flagged broadcast")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := map[string]*Trace{
		"bad nodes": {Nodes: 0},
		"non-dense ids": {Nodes: 4, Messages: []Message{
			{ID: 2, Src: 0, Dst: 1},
		}},
		"forward dep": {Nodes: 4, Messages: []Message{
			{ID: 1, Src: 0, Dst: 1, Dep: 1},
		}},
		"src range": {Nodes: 4, Messages: []Message{
			{ID: 1, Src: 9, Dst: 1},
		}},
		"dst range": {Nodes: 4, Messages: []Message{
			{ID: 1, Src: 0, Dst: 9},
		}},
		"self-directed": {Nodes: 4, Messages: []Message{
			{ID: 1, Src: 2, Dst: 2},
		}},
		"negative think": {Nodes: 4, Messages: []Message{
			{ID: 1, Src: 0, Dst: 1, Think: -1},
		}},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	if err := sample().Validate(); err != nil {
		t.Errorf("sample invalid: %v", err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Nodes: 0}); err == nil {
		t.Error("Write accepted invalid trace")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTATRACE_______")); err == nil {
		t.Error("Read accepted bad magic")
	}
	if _, err := Read(strings.NewReader("PH")); err == nil {
		t.Error("Read accepted truncated header")
	}
	// Valid header claiming one message but no body.
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Nodes: 4, Messages: []Message{{ID: 1, Src: 0, Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:len(buf.Bytes())-8]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("Read accepted truncated record")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Nodes: 16}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != 16 || len(got.Messages) != 0 {
		t.Error("empty trace round-trip failed")
	}
}

// A header may claim up to 2^32-1 records; Read must not reserve room for
// them before they arrive. The 16-byte file below claims the maximum and
// holds none, so Read fails at the first record having allocated only its
// bounded first slice.
func TestReadHugeCountHeaderAllocatesBounded(t *testing.T) {
	hdr := []byte(Magic + "\x40\x00\x00\x00\xff\xff\xff\xff")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without records accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("Read allocated %d bytes for an empty trace", got)
	}
}

// FuzzTraceRead feeds arbitrary bytes to Read: it must never panic, and
// any trace it accepts must survive a Write/Read round trip unchanged.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if back.Nodes != tr.Nodes || !slices.Equal(back.Messages, tr.Messages) {
			t.Fatalf("round trip changed the trace: %+v -> %+v", tr, back)
		}
	})
}
