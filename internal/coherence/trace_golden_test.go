package coherence

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"phastlane/internal/trace"
)

// traceDigest hashes every field of every message of a trace (and the
// node count) with FNV-64a, so any change to a generated trace - order,
// IDs, endpoints, ops, dependencies or timing - changes the digest.
func traceDigest(tr *trace.Trace) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(tr.Nodes))
	put(uint64(len(tr.Messages)))
	for _, m := range tr.Messages {
		put(m.ID)
		put(uint64(m.EarliestCycle))
		put(uint64(int64(m.Src)))
		put(uint64(int64(m.Dst)))
		put(uint64(m.Op))
		put(m.Dep)
		put(uint64(m.Think))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGenerateTraceGolden pins the traces GenerateTrace produces: every
// Table-3 benchmark at 1500 messages and two seeds under the snoopy
// protocol, one 256-core system, and every benchmark at one seed under
// the directory protocol. Any change to the generator that is meant to be
// a pure refactor or speed-up must leave these digests alone.
func TestGenerateTraceGolden(t *testing.T) {
	type row struct {
		bench    string
		cores    int
		protocol Protocol
		seed     int64
		digest   string
	}
	rows := []row{
		{"Barnes", 64, Snoopy, 1, "b7e77a76a93f6ce0"},
		{"Barnes", 64, Snoopy, 2, "74ed7af28f441d89"},
		{"Cholesky", 64, Snoopy, 1, "f277585a79113ea0"},
		{"Cholesky", 64, Snoopy, 2, "c3b492cd61067513"},
		{"FFT", 64, Snoopy, 1, "f29299b529b3e01e"},
		{"FFT", 64, Snoopy, 2, "2accc58cebdb3cf0"},
		{"LU", 64, Snoopy, 1, "e2b7f3c69a753663"},
		{"LU", 64, Snoopy, 2, "88894dcc38dae028"},
		{"Ocean", 64, Snoopy, 1, "7abcf49d91ec563d"},
		{"Ocean", 64, Snoopy, 2, "fe005a30b25f333b"},
		{"Radix", 64, Snoopy, 1, "26a74ff5a24d50c2"},
		{"Radix", 64, Snoopy, 2, "64c45d63caad8a21"},
		{"Raytrace", 64, Snoopy, 1, "359598e056ea8bf0"},
		{"Raytrace", 64, Snoopy, 2, "ab3b8f05548251b5"},
		{"Water-NSquared", 64, Snoopy, 1, "4b94f84797d5320b"},
		{"Water-NSquared", 64, Snoopy, 2, "a8184f523d70d32f"},
		{"Water-Spatial", 64, Snoopy, 1, "1e3d5787b8f7a493"},
		{"Water-Spatial", 64, Snoopy, 2, "5267da3094fa9402"},
		{"FMM", 64, Snoopy, 1, "b7e7f924a71578c1"},
		{"FMM", 64, Snoopy, 2, "47159cd7fdccc0f6"},
		{"Water-Spatial", 256, Snoopy, 22, "d1c3438ec2c63622"},
		{"Barnes", 64, DirectoryMSI, 1, "6783a3c7c466a5d7"},
		{"Cholesky", 64, DirectoryMSI, 1, "0d7a73f19358144c"},
		{"FFT", 64, DirectoryMSI, 1, "00adbed2c61adcc4"},
		{"LU", 64, DirectoryMSI, 1, "0530376c34b1484f"},
		{"Ocean", 64, DirectoryMSI, 1, "7db5c93bd4a8a32f"},
		{"Radix", 64, DirectoryMSI, 1, "7699880db97c01ff"},
		{"Raytrace", 64, DirectoryMSI, 1, "7e46ad1017d94594"},
		{"Water-NSquared", 64, DirectoryMSI, 1, "3d75839a55c6b652"},
		{"Water-Spatial", 64, DirectoryMSI, 1, "d055a17dd3301e0e"},
		{"FMM", 64, DirectoryMSI, 1, "39ec578de04e993e"},
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/%d/%s/seed%d", r.bench, r.cores, r.protocol, r.seed)
		t.Run(name, func(t *testing.T) {
			p, err := BenchmarkByName(r.bench)
			if err != nil {
				t.Fatal(err)
			}
			p.Messages = 1500
			p.Protocol = r.protocol
			cfg := DefaultConfig()
			cfg.Cores = r.cores
			tr, err := GenerateTrace(p, cfg, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := traceDigest(tr); got != r.digest {
				t.Errorf("digest %s, want %s (%d messages)", got, r.digest, len(tr.Messages))
			}
		})
	}
}
