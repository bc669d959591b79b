package electrical

import (
	"math/rand"
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
)

func mustNew(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

func stepUntilQuiescent(t *testing.T, n *Network, limit int) []sim.Delivery {
	t.Helper()
	var all []sim.Delivery
	for i := 0; i < limit; i++ {
		all = append(all, n.Step(nil)...)
		if n.Quiescent() {
			return all
		}
	}
	t.Fatalf("network not quiescent after %d cycles", limit)
	return nil
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.VCs = maxVCs + 1 }, // 5 ports x 13 VCs overflow a 64-bit request mask
		func(c *Config) { c.RouterDelay = 1 },
		func(c *Config) { c.InputSpeedup = 0 },
		func(c *Config) { c.NICEntries = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	widest := DefaultConfig()
	widest.VCs = maxVCs
	if err := widest.Validate(); err != nil {
		t.Errorf("%d VCs: %v", maxVCs, err)
	}
	New(widest) // builds its allocators without panicking
}

func TestDefaultMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.VCs != 10 {
		t.Errorf("VCs = %d, want 10", cfg.VCs)
	}
	if cfg.RouterDelay != 3 {
		t.Errorf("RouterDelay = %d, want 3", cfg.RouterDelay)
	}
	if cfg.InputSpeedup != 4 {
		t.Errorf("InputSpeedup = %d, want 4", cfg.InputSpeedup)
	}
	if cfg.NICEntries != 50 {
		t.Errorf("NICEntries = %d, want 50", cfg.NICEntries)
	}
}

// deliverCycle injects one unicast message and returns the cycle of
// delivery.
func deliverCycle(t *testing.T, n *Network, src, dst mesh.NodeID) int {
	t.Helper()
	n.Inject(sim.Message{ID: 1, Src: src, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
	for i := 0; i < 200; i++ {
		if ds := n.Step(nil); len(ds) > 0 {
			if ds[0].Dst != dst {
				t.Fatalf("delivered to %d, want %d", ds[0].Dst, dst)
			}
			return i
		}
	}
	t.Fatal("packet never delivered")
	return -1
}

func TestPerHopLatencyThreeCycles(t *testing.T) {
	// One hop with a 3-cycle router: inject at cycle 0, VC entry at 0,
	// SA at 2, link arrival at 3, ejection at 4.
	if got := deliverCycle(t, mustNew(t, nil), 0, 1); got != 4 {
		t.Errorf("1-hop delivery at cycle %d, want 4", got)
	}
	// Each extra hop adds RouterDelay cycles.
	if got := deliverCycle(t, mustNew(t, nil), 0, 2); got != 7 {
		t.Errorf("2-hop delivery at cycle %d, want 7", got)
	}
}

func TestPerHopLatencyTwoCycles(t *testing.T) {
	fast := func(c *Config) { c.RouterDelay = 2 }
	if got := deliverCycle(t, mustNew(t, fast), 0, 1); got != 3 {
		t.Errorf("1-hop delivery at cycle %d, want 3", got)
	}
	if got := deliverCycle(t, mustNew(t, fast), 0, 2); got != 5 {
		t.Errorf("2-hop delivery at cycle %d, want 5", got)
	}
}

func TestCornerToCorner(t *testing.T) {
	// 14 hops at 3 cycles each + ejection: 14*3 + 1 = 43.
	if got := deliverCycle(t, mustNew(t, nil), 0, 63); got != 43 {
		t.Errorf("corner-to-corner at cycle %d, want 43", got)
	}
}

func TestBroadcastViaVCTM(t *testing.T) {
	n := mustNew(t, nil)
	var dsts []mesh.NodeID
	for i := mesh.NodeID(0); i < 64; i++ {
		if i != 27 {
			dsts = append(dsts, i)
		}
	}
	n.Inject(sim.Message{ID: 1, Src: 27, Dsts: dsts, Op: packet.OpReadReq})
	got := make(map[mesh.NodeID]int)
	for _, d := range stepUntilQuiescent(t, n, 2000) {
		got[d.Dst]++
	}
	if len(got) != 63 {
		t.Fatalf("broadcast reached %d nodes, want 63", len(got))
	}
	for node, c := range got {
		if c != 1 {
			t.Errorf("node %d received %d copies", node, c)
		}
	}
}

func TestTreeCacheReused(t *testing.T) {
	n := mustNew(t, nil)
	var dsts []mesh.NodeID
	for i := mesh.NodeID(1); i < 64; i++ {
		dsts = append(dsts, i)
	}
	// Full broadcasts use the per-source cache, not the keyed map.
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: dsts, Op: packet.OpReadReq})
	stepUntilQuiescent(t, n, 2000)
	first := n.bcast[0]
	if first == nil {
		t.Fatal("broadcast tree not cached for source 0")
	}
	if len(n.trees) != 0 {
		t.Fatalf("full broadcast landed in the keyed cache (%d entries)", len(n.trees))
	}
	n.Inject(sim.Message{ID: 2, Src: 0, Dsts: dsts, Op: packet.OpReadReq})
	stepUntilQuiescent(t, n, 2000)
	if n.bcast[0] != first {
		t.Error("repeat broadcast rebuilt the cached tree")
	}
	// Partial multicasts fall back to the keyed cache.
	part := dsts[:5]
	n.Inject(sim.Message{ID: 3, Src: 0, Dsts: part, Op: packet.OpReadReq})
	stepUntilQuiescent(t, n, 2000)
	if len(n.trees) != 1 {
		t.Fatalf("keyed cache has %d entries after partial multicast", len(n.trees))
	}
	n.Inject(sim.Message{ID: 4, Src: 0, Dsts: part, Op: packet.OpReadReq})
	stepUntilQuiescent(t, n, 2000)
	if len(n.trees) != 1 {
		t.Errorf("keyed cache grew to %d entries on repeat multicast", len(n.trees))
	}
}

func TestExactOnceUnderLoad(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.Seed = 5 })
	rng := rand.New(rand.NewSource(42))
	injected := make(map[uint64]mesh.NodeID)
	delivered := make(map[uint64]int)
	var id uint64
	collect := func(ds []sim.Delivery) {
		for _, d := range ds {
			delivered[d.MsgID]++
		}
	}
	for cycle := 0; cycle < 400; cycle++ {
		for node := mesh.NodeID(0); node < 64; node++ {
			if rng.Float64() < 0.15 && n.NICFree(node) > 0 {
				dst := mesh.NodeID(rng.Intn(64))
				if dst == node {
					continue
				}
				id++
				injected[id] = dst
				n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
			}
		}
		collect(n.Step(nil))
	}
	for i := 0; i < 30000 && !n.Quiescent(); i++ {
		collect(n.Step(nil))
	}
	if !n.Quiescent() {
		t.Fatal("network failed to drain")
	}
	if len(delivered) != len(injected) {
		t.Fatalf("delivered %d messages, injected %d", len(delivered), len(injected))
	}
	for m, c := range delivered {
		if c != 1 {
			t.Fatalf("msg %d delivered %d times", m, c)
		}
	}
}

func TestMixedUnicastAndBroadcast(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.Seed = 9 })
	var all []mesh.NodeID
	for i := mesh.NodeID(1); i < 64; i++ {
		all = append(all, i)
	}
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: all, Op: packet.OpWriteReq})
	want := map[uint64]int{1: 63}
	id := uint64(2)
	for s := mesh.NodeID(8); s < 24; s++ {
		n.Inject(sim.Message{ID: id, Src: s, Dsts: []mesh.NodeID{63 - s}, Op: packet.OpSynthetic})
		want[id] = 1
		id++
	}
	got := make(map[uint64]int)
	for _, d := range stepUntilQuiescent(t, n, 5000) {
		got[d.MsgID]++
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("msg %d delivered %d times, want %d", m, got[m], w)
		}
	}
}

func TestNICCapacityAndPanics(t *testing.T) {
	n := mustNew(t, func(c *Config) { c.NICEntries = 1 })
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
	if n.NICFree(0) != 0 {
		t.Error("NICFree should be 0")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("full NIC", func() {
		n.Inject(sim.Message{ID: 2, Src: 0, Dsts: []mesh.NodeID{1}, Op: packet.OpSynthetic})
	})
	n2 := mustNew(t, nil)
	mustPanic("self-directed", func() {
		n2.Inject(sim.Message{ID: 1, Src: 3, Dsts: []mesh.NodeID{3}, Op: packet.OpSynthetic})
	})
	mustPanic("no destinations", func() {
		n2.Inject(sim.Message{ID: 1, Src: 3, Dsts: nil, Op: packet.OpSynthetic})
	})
}

func TestEnergyAccumulates(t *testing.T) {
	n := mustNew(t, nil)
	n.Inject(sim.Message{ID: 1, Src: 0, Dsts: []mesh.NodeID{9}, Op: packet.OpSynthetic})
	stepUntilQuiescent(t, n, 200)
	r := n.Run()
	if r.ElectricalEnergyPJ <= 0 || r.LeakagePJ <= 0 {
		t.Errorf("energy not accumulating: %v / %v", r.ElectricalEnergyPJ, r.LeakagePJ)
	}
	if r.OpticalEnergyPJ != 0 {
		t.Error("electrical network should have no optical energy")
	}
	if r.LinkTraversals != 2 {
		t.Errorf("link traversals = %d, want 2", r.LinkTraversals)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		n := mustNew(t, nil)
		rng := rand.New(rand.NewSource(7))
		var id uint64
		for cycle := 0; cycle < 200; cycle++ {
			for node := mesh.NodeID(0); node < 64; node++ {
				if rng.Float64() < 0.2 && n.NICFree(node) > 0 {
					dst := mesh.NodeID(rng.Intn(64))
					if dst == node {
						continue
					}
					id++
					n.Inject(sim.Message{ID: id, Src: node, Dsts: []mesh.NodeID{dst}, Op: packet.OpSynthetic})
				}
			}
			n.Step(nil)
		}
		return n.Run().ElectricalEnergyPJ, n.Run().LinkTraversals
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", e1, l1, e2, l2)
	}
}

func TestWaitForTailCreditLimitsSingleVC(t *testing.T) {
	// With one VC per port, back-to-back packets over the same link
	// serialise on the credit round-trip: each packet holds the
	// downstream VC until it departs, and the credit returns one cycle
	// later. Throughput must be well below 1 flit/cycle.
	n := mustNew(t, func(c *Config) { c.VCs = 1 })
	const packets = 20
	for i := uint64(1); i <= packets; i++ {
		n.Inject(sim.Message{ID: i, Src: 0, Dsts: []mesh.NodeID{2}, Op: packet.OpSynthetic})
	}
	ds := stepUntilQuiescent(t, n, 2000)
	if len(ds) != packets {
		t.Fatalf("delivered %d of %d", len(ds), packets)
	}
	// Each hop takes RouterDelay=3 plus credit turnaround: 20 packets
	// over a single VC chain cannot finish in under ~20*4 cycles.
	if n.cycle < packets*4 {
		t.Errorf("completed at cycle %d, too fast for single-VC credit flow", n.cycle)
	}
}

func TestTenVCsRecoverThroughput(t *testing.T) {
	// The Table 2 configuration pipelines 10 packets per port
	// concurrently, finishing the same workload far sooner.
	slow := mustNew(t, func(c *Config) { c.VCs = 1 })
	fast := mustNew(t, nil) // 10 VCs
	const packets = 20
	run := func(n *Network) int64 {
		for i := uint64(1); i <= packets; i++ {
			n.Inject(sim.Message{ID: i, Src: 0, Dsts: []mesh.NodeID{2}, Op: packet.OpSynthetic})
		}
		stepUntilQuiescent(t, n, 2000)
		return n.cycle
	}
	tSlow, tFast := run(slow), run(fast)
	if tFast*2 > tSlow {
		t.Errorf("10 VCs (%d cycles) should be far faster than 1 VC (%d cycles)", tFast, tSlow)
	}
}

func TestInputSpeedupAllowsParallelOutputs(t *testing.T) {
	// One input port feeding four different outputs in the same window:
	// input speedup 4 lets all four flits traverse without serialising
	// on the crossbar input.
	n := mustNew(t, nil)
	// Node 9 (1,1) has all four neighbours; send one packet each way.
	dsts := []mesh.NodeID{10, 8, 17, 1}
	for i, d := range dsts {
		n.Inject(sim.Message{ID: uint64(i + 1), Src: 9, Dsts: []mesh.NodeID{d}, Op: packet.OpSynthetic})
	}
	// All four arrive within one cycle of each other: injection is one
	// per cycle into separate VCs, but switch traversal overlaps.
	arrivals := map[uint64]int64{}
	for i := int64(0); i < 40 && len(arrivals) < 4; i++ {
		for _, d := range n.Step(nil) {
			arrivals[d.MsgID] = i
		}
	}
	if len(arrivals) != 4 {
		t.Fatalf("delivered %d of 4", len(arrivals))
	}
	var minAt, maxAt int64 = 1 << 62, -1
	for _, at := range arrivals {
		if at < minAt {
			minAt = at
		}
		if at > maxAt {
			maxAt = at
		}
	}
	// Injection serialises (1 NIC move/cycle) but nothing else should:
	// spread <= number of packets.
	if maxAt-minAt > 4 {
		t.Errorf("arrival spread %d cycles, want <= 4", maxAt-minAt)
	}
}

func TestQuiescentInitially(t *testing.T) {
	if !mustNew(t, nil).Quiescent() {
		t.Error("fresh network not quiescent")
	}
}
