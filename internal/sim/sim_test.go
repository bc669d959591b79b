package sim_test

import (
	"testing"

	"phastlane/internal/circuit"
	"phastlane/internal/core"
	"phastlane/internal/corona"
	"phastlane/internal/electrical"
	"phastlane/internal/packet"
	"phastlane/internal/sim"
	"phastlane/internal/trace"
	"phastlane/internal/traffic"
)

func optical() sim.Network    { return core.New(core.DefaultConfig()) }
func baseline() sim.Network   { return electrical.New(electrical.DefaultConfig()) }
func networks() []sim.Network { return []sim.Network{optical(), baseline()} }

func TestRunRateLowLoadDeliversEverything(t *testing.T) {
	for _, net := range networks() {
		r := sim.RunRate(net, sim.RateConfig{
			Pattern: traffic.UniformRandom(64, 1),
			Rate:    0.02, Warmup: 200, Measure: 1000, Seed: 2,
		})
		if r.Saturated {
			t.Errorf("%T saturated at rate 0.02", net)
		}
		if r.Run.Latency.Count() == 0 {
			t.Errorf("%T recorded no latencies", net)
		}
		if r.Run.Delivered != int64(r.Run.Latency.Count()) {
			t.Errorf("%T delivered/count mismatch", net)
		}
		if r.Run.Latency.Mean() <= 0 {
			t.Errorf("%T non-positive mean latency", net)
		}
	}
}

func TestOpticalLatencyAdvantage(t *testing.T) {
	// The headline Fig. 9 property: at low load the optical network's
	// average latency is several times lower than the electrical
	// baseline's.
	cfg := sim.RateConfig{Pattern: traffic.UniformRandom(64, 3), Rate: 0.01, Warmup: 300, Measure: 2000, Seed: 4}
	opt := sim.RunRate(optical(), cfg)
	ele := sim.RunRate(baseline(), cfg)
	ratio := ele.Run.Latency.Mean() / opt.Run.Latency.Mean()
	if ratio < 3 {
		t.Errorf("optical advantage %.2fx, want >= 3x (opt %.1f vs ele %.1f)",
			ratio, opt.Run.Latency.Mean(), ele.Run.Latency.Mean())
	}
}

func TestRunRateSaturationDetected(t *testing.T) {
	// Full-rate bit-complement slams an 8x8 mesh well past saturation.
	r := sim.RunRate(optical(), sim.RateConfig{
		Pattern: traffic.BitComplement(64),
		Rate:    1.0, Warmup: 200, Measure: 500, DrainLimit: 300, Seed: 5,
	})
	if !r.Saturated {
		t.Error("rate 1.0 bit-complement not flagged saturated")
	}
}

func TestSweepFindsKnee(t *testing.T) {
	rates := []float64{0.01, 0.05, 0.6, 0.9, 1.0}
	pts := sim.Sweep(func() sim.Network {
		cfg := core.DefaultConfig()
		cfg.Seed = 7
		return core.New(cfg)
	}, traffic.Transpose(64), rates, 7)
	if len(pts) < 2 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	if pts[0].Saturated {
		t.Error("lowest rate saturated")
	}
	sat := sim.SaturationRate(pts)
	if sat <= 0 {
		t.Error("no non-saturated rate found")
	}
	// Latency is non-decreasing from the first to the last
	// non-saturated point, roughly.
	if pts[0].AvgLatency <= 0 {
		t.Error("zero latency at low rate")
	}
}

func tinyTrace() *trace.Trace {
	return &trace.Trace{
		Nodes: 64,
		Messages: []trace.Message{
			{ID: 1, Src: 0, Dst: 5, Op: packet.OpReadReq},
			{ID: 2, Src: 5, Dst: 0, Op: packet.OpDataReply, Dep: 1, Think: 2},
			{ID: 3, Src: 0, Dst: 9, Op: packet.OpReadReq, Dep: 2, Think: 4},
			{ID: 4, Src: 2, Dst: trace.Broadcast, Op: packet.OpWriteReq},
		},
	}
}

func TestRunTraceHonoursDependencies(t *testing.T) {
	for _, net := range networks() {
		res, err := sim.RunTrace(net, tinyTrace(), sim.ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Fatalf("%T: tiny trace hit the cycle limit", net)
		}
		if res.Run.Delivered != 4 {
			t.Errorf("%T: delivered %d messages, want 4", net, res.Run.Delivered)
		}
		// Chain 1 -> 2 -> 3 with think times forces a minimum
		// makespan: at least think(2)+think(3) plus three traversals.
		if res.Makespan < 8 {
			t.Errorf("%T: makespan %d suspiciously small", net, res.Makespan)
		}
	}
}

func TestRunTraceMakespanOrdering(t *testing.T) {
	// The optical network must finish the same dependency chain faster
	// - this is the mechanism behind Fig. 10's network speedup.
	msgs := []trace.Message{}
	id := uint64(1)
	// A long request/reply ping-pong between distant nodes.
	var dep uint64
	for i := 0; i < 40; i++ {
		msgs = append(msgs, trace.Message{ID: id, Src: 0, Dst: 63, Op: packet.OpReadReq, Dep: dep, Think: 2})
		dep = id
		id++
		msgs = append(msgs, trace.Message{ID: id, Src: 63, Dst: 0, Op: packet.OpDataReply, Dep: dep, Think: 2})
		dep = id
		id++
	}
	tr := &trace.Trace{Nodes: 64, Messages: msgs}
	opt, err := sim.RunTrace(optical(), tr, sim.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ele, err := sim.RunTrace(baseline(), tr, sim.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(ele.Makespan) / float64(opt.Makespan)
	if speedup < 1.5 {
		t.Errorf("optical trace speedup %.2fx, want >= 1.5x (opt %d vs ele %d)",
			speedup, opt.Makespan, ele.Makespan)
	}
}

func TestRunTraceRejectsMismatchedNodes(t *testing.T) {
	tr := &trace.Trace{Nodes: 16, Messages: []trace.Message{{ID: 1, Src: 0, Dst: 1}}}
	if _, err := sim.RunTrace(optical(), tr, sim.ReplayConfig{}); err == nil {
		t.Error("node-count mismatch accepted")
	}
}

func TestRunTraceRejectsInvalidTrace(t *testing.T) {
	tr := &trace.Trace{Nodes: 64, Messages: []trace.Message{{ID: 5, Src: 0, Dst: 1}}}
	if _, err := sim.RunTrace(optical(), tr, sim.ReplayConfig{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestRunTraceLimit(t *testing.T) {
	for _, net := range networks() {
		res, err := sim.RunTrace(net, tinyTrace(), sim.ReplayConfig{Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Saturated {
			t.Errorf("%T: cycle-limit abort not flagged", net)
		}
		// The abort leaves injected messages in flight: every one is
		// delivered, lost or reported unresolved.
		if res.Unresolved == 0 {
			t.Errorf("%T: limit-aborted replay reports no unresolved messages", net)
		}
		if got := res.Run.Delivered + res.Lost + res.Unresolved; got != res.Run.Injected {
			t.Errorf("%T: delivered %d + lost %d + unresolved %d != injected %d",
				net, res.Run.Delivered, res.Lost, res.Unresolved, res.Run.Injected)
		}
	}
}

func TestBroadcastDeliveryCountsInTrace(t *testing.T) {
	tr := &trace.Trace{Nodes: 64, Messages: []trace.Message{
		{ID: 1, Src: 7, Dst: trace.Broadcast, Op: packet.OpWriteReq},
	}}
	for _, net := range networks() {
		res, err := sim.RunTrace(net, tr, sim.ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.Delivered != 1 {
			t.Errorf("%T: broadcast counted as %d completed messages, want 1", net, res.Run.Delivered)
		}
		if res.Saturated {
			t.Errorf("%T: broadcast trace stalled", net)
		}
	}
}

// Differential test: all four architectures must deliver exactly the same
// (message, destination) multiset for the same trace - only timing differs.
func TestAllNetworksDeliverIdenticalSets(t *testing.T) {
	msgs := []trace.Message{
		{ID: 1, Src: 0, Dst: 63, Op: packet.OpReadReq},
		{ID: 2, Src: 63, Dst: 0, Op: packet.OpDataReply, Dep: 1, Think: 2},
		{ID: 3, Src: 5, Dst: trace.Broadcast, Op: packet.OpWriteReq},
		{ID: 4, Src: 17, Dst: 42, Op: packet.OpWriteback},
		{ID: 5, Src: 42, Dst: trace.Broadcast, Op: packet.OpReadReq, Dep: 4, Think: 1},
	}
	tr := &trace.Trace{Nodes: 64, Messages: msgs}
	nets := map[string]sim.Network{
		"phastlane":  core.New(core.DefaultConfig()),
		"electrical": electrical.New(electrical.DefaultConfig()),
		"corona":     corona.New(corona.DefaultConfig()),
		"circuit":    circuit.New(circuit.DefaultConfig()),
	}
	for name, net := range nets {
		res, err := sim.RunTrace(net, tr, sim.ReplayConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Saturated {
			t.Fatalf("%s: stalled", name)
		}
		if res.Run.Delivered != int64(len(msgs)) {
			t.Fatalf("%s: completed %d of %d messages", name, res.Run.Delivered, len(msgs))
		}
	}
}

func TestRunTraceLatencyByOp(t *testing.T) {
	res, err := sim.RunTrace(optical(), tinyTrace(), sim.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range res.LatencyByOp {
		total += l.Count()
	}
	if total != int(res.Run.Delivered) {
		t.Errorf("per-op latency counts %d != delivered %d", total, res.Run.Delivered)
	}
	if res.LatencyByOp[packet.OpWriteReq] == nil {
		t.Error("missing broadcast class")
	}
	if res.LatencyByOp[packet.OpDataReply] == nil {
		t.Error("missing reply class")
	}
}
