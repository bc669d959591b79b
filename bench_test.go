// One benchmark per table and figure of the paper's evaluation. Each
// Benchmark regenerates its table/figure through internal/figures and
// prints the rows the paper reports (once), so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation at reduced scale. The cmd/ tools run the
// same harness at full scale. BenchmarkAblation* cover the design choices
// DESIGN.md calls out.
package phastlane_test

import (
	"fmt"
	"sync"
	"testing"

	"phastlane/internal/coherence"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/figures"
	"phastlane/internal/islip"
	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// printOnce guards table output so repeated bench iterations stay quiet.
var printOnce sync.Map

func printTable(key string, f func() fmt.Stringer) {
	if _, done := printOnce.LoadOrStore(key, true); !done {
		fmt.Println(f())
	}
}

// --- Section 3 design space (cheap analytic models) ---

func BenchmarkFig4ScalingTrends(b *testing.B) {
	printTable("fig4", func() fmt.Stringer { return figures.Fig4() })
	for i := 0; i < b.N; i++ {
		for _, s := range photonic.Scenarios() {
			photonic.DelaysAt(s, 16)
		}
	}
}

func BenchmarkFig5CriticalPaths(b *testing.B) {
	printTable("fig5", func() fmt.Stringer { return figures.Fig5() })
	for i := 0; i < b.N; i++ {
		for _, s := range photonic.Scenarios() {
			photonic.Paths(s, 64)
		}
	}
}

func BenchmarkFig6MaxHops(b *testing.B) {
	printTable("fig6", func() fmt.Stringer { return figures.Fig6() })
	for i := 0; i < b.N; i++ {
		for _, s := range photonic.Scenarios() {
			photonic.MaxHopsPerCycle(s, 64, photonic.DefaultClockGHz)
		}
	}
}

func BenchmarkFig7PeakPower(b *testing.B) {
	printTable("fig7", func() fmt.Stringer { return figures.Fig7() })
	for i := 0; i < b.N; i++ {
		photonic.PeakOpticalPowerW(64, 4, 0.98)
	}
}

func BenchmarkFig8Area(b *testing.B) {
	printTable("fig8", func() fmt.Stringer { return figures.Fig8() })
	for i := 0; i < b.N; i++ {
		photonic.AreaAt(64)
	}
}

func BenchmarkTable1OpticalConfig(b *testing.B) {
	printTable("table1", func() fmt.Stringer { return figures.Table1() })
	for i := 0; i < b.N; i++ {
		_ = core.DefaultConfig().Validate()
	}
}

func BenchmarkTable2ElectricalConfig(b *testing.B) {
	printTable("table2", func() fmt.Stringer { return figures.Table2() })
	for i := 0; i < b.N; i++ {
		_ = electrical.DefaultConfig().Validate()
	}
}

func BenchmarkTable3Workloads(b *testing.B) {
	printTable("table3", func() fmt.Stringer { return figures.Table3() })
	for i := 0; i < b.N; i++ {
		_ = coherence.Benchmarks()
	}
}

func BenchmarkTable4CacheConfig(b *testing.B) {
	printTable("table4", func() fmt.Stringer { return figures.Table4() })
	for i := 0; i < b.N; i++ {
		_ = coherence.DefaultConfig().Validate()
	}
}

// --- Fig. 9: synthetic latency versus injection rate ---

var (
	fig9Once sync.Once
	fig9Res  []figures.Fig9Result
)

func fig9() []figures.Fig9Result {
	fig9Once.Do(func() {
		fig9Res = figures.Fig9(figures.Fig9Opts{
			Rates:  []float64{0.02, 0.10, 0.20, 0.30, 0.40},
			Warmup: 300, Measure: 1200, Seed: 2,
		})
		for _, r := range fig9Res {
			fmt.Println(figures.Fig9Table(r))
		}
	})
	return fig9Res
}

func BenchmarkFig9SyntheticLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig9()
		// Report the headline low-load latency advantage
		// (Electrical3 / Optical4 at the lowest rate, averaged over
		// the four patterns).
		var ratio float64
		for _, r := range res {
			lat := map[string]float64{}
			for _, c := range r.Curves {
				lat[c.Config] = c.Points[0].AvgLatency
			}
			ratio += lat["Electrical3"] / lat["Optical4"]
		}
		b.ReportMetric(ratio/float64(len(res)), "latency-advantage-x")
	}
}

// --- Figs. 10 and 11: SPLASH2 speedup and power ---

var (
	splashOnce sync.Once
	splashRows []figures.SplashRow
	splashErr  error
)

// splash runs the full ten-benchmark evaluation once at a reduced trace
// length and is shared by the Fig. 10, Fig. 11 and headline benchmarks.
func splash(b *testing.B) []figures.SplashRow {
	splashOnce.Do(func() {
		splashRows, splashErr = figures.Splash(figures.SplashOpts{Messages: 6000, Seed: 1})
		if splashErr == nil {
			fmt.Println(figures.Fig10Table(splashRows))
			fmt.Println(figures.Fig11Table(splashRows))
		}
	})
	if splashErr != nil {
		b.Fatal(splashErr)
	}
	return splashRows
}

func BenchmarkFig10SplashSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := splash(b)
		h := figures.Summarise(rows, "Optical4")
		b.ReportMetric(h.GeoMeanSpeedup, "geomean-speedup-x")
	}
}

func BenchmarkFig11SplashPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := splash(b)
		h := figures.Summarise(rows, "Optical4")
		b.ReportMetric(h.PowerReduction*100, "power-reduction-%")
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := splash(b)
		h := figures.Summarise(rows, "Optical4")
		if _, done := printOnce.LoadOrStore("headline", true); !done {
			fmt.Printf("HEADLINE (paper: 2X speedup, 80%% less power): Optical4 %.2fx speedup, %.0f%% less power\n\n",
				h.GeoMeanSpeedup, h.PowerReduction*100)
		}
		b.ReportMetric(h.GeoMeanSpeedup, "speedup-x")
		b.ReportMetric(h.PowerReduction*100, "power-reduction-%")
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

func ablationRun(b *testing.B, benchmark string, mutate func(*core.Config)) float64 {
	b.Helper()
	tr, err := figures.TraceFor(benchmark, 4000, 17)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := sim.RunTrace(core.New(cfg), tr, sim.ReplayConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return res.Run.Latency.Mean()
}

// BenchmarkAblationArbitration: the paper's footnote 3 - round-robin turn
// arbitration buys nothing over fixed priority.
func BenchmarkAblationArbitration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed := ablationRun(b, "LU", nil)
		rr := ablationRun(b, "LU", func(c *core.Config) { c.RoundRobinTurns = true })
		b.ReportMetric(fixed, "fixed-latency")
		b.ReportMetric(rr, "roundrobin-latency")
	}
}

// BenchmarkAblationBypass: interim re-segmentation on relaunch (Section
// 2.1.3's "may choose to bypass the original interim node").
func BenchmarkAblationBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationRun(b, "LU", nil)
		off := ablationRun(b, "LU", func(c *core.Config) { c.Bypass = false })
		b.ReportMetric(on, "bypass-latency")
		b.ReportMetric(off, "no-bypass-latency")
	}
}

// BenchmarkAblationBackoff: retransmission pacing after drops.
func BenchmarkAblationBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		weak := ablationRun(b, "Ocean", nil)
		strong := ablationRun(b, "Ocean", func(c *core.Config) {
			c.BackoffBase, c.BackoffMax = 16, 256
		})
		b.ReportMetric(weak, "backoff-1-8-latency")
		b.ReportMetric(strong, "backoff-16-256-latency")
	}
}

// BenchmarkAblationBuffering: the Fig. 10 buffer sweep on the
// buffer-hungriest workload.
func BenchmarkAblationBuffering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, buf := range []int{10, 32, 64, -1} {
			lat := ablationRun(b, "Ocean", func(c *core.Config) { c.BufferEntries = buf })
			name := fmt.Sprintf("buf%d-latency", buf)
			if buf < 0 {
				name = "bufInf-latency"
			}
			b.ReportMetric(lat, name)
		}
	}
}

// BenchmarkAblationMulticast: Section 2.1.4's multicast sweeps versus a
// 63-packet unicast storm per broadcast.
func BenchmarkAblationMulticast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mcast := ablationRun(b, "Barnes", nil)
		storm := ablationRun(b, "Barnes", func(c *core.Config) { c.UnicastBroadcast = true })
		b.ReportMetric(mcast, "multicast-latency")
		b.ReportMetric(storm, "unicast-storm-latency")
	}
}

// --- Microbenchmarks of the hot paths ---

func BenchmarkOpticalStepLoaded(b *testing.B) {
	net := core.New(core.DefaultConfig())
	inj := traffic.NewInjector(traffic.UniformRandom(64, 1), 64, 0.10, 2)
	var id uint64
	var buf []sim.Delivery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inj.Tick() {
			if net.NICFree(in.Src) > 0 {
				id++
				net.Inject(sim.Message{ID: id, Src: in.Src, Dsts: []mesh.NodeID{in.Dst}, Op: packet.OpSynthetic})
			}
		}
		buf = net.Step(buf[:0])
	}
}

func BenchmarkElectricalStepLoaded(b *testing.B) {
	net := electrical.New(electrical.DefaultConfig())
	inj := traffic.NewInjector(traffic.UniformRandom(64, 1), 64, 0.10, 2)
	var id uint64
	var buf []sim.Delivery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inj.Tick() {
			if net.NICFree(in.Src) > 0 {
				id++
				net.Inject(sim.Message{ID: id, Src: in.Src, Dsts: []mesh.NodeID{in.Dst}, Op: packet.OpSynthetic})
			}
		}
		buf = net.Step(buf[:0])
	}
}

// stepSteadyState measures one warmed-up inject+Step cycle under
// sustained uniform-random load: the pools and scratch buffers are grown
// before the timer starts, so the measured loop must report 0 allocs/op.
// cmd/bench runs this pair and records the results in BENCH_kernel.json.
func stepSteadyState(b *testing.B, net sim.Network, rate float64) {
	inj := traffic.NewInjector(traffic.UniformRandom(net.Nodes(), 1), net.Nodes(), rate, 2)
	var id uint64
	var buf []sim.Delivery
	dsts := make([]mesh.NodeID, 1)
	cycle := func() {
		for _, in := range inj.Tick() {
			if net.NICFree(in.Src) > 0 {
				id++
				dsts[0] = in.Dst
				net.Inject(sim.Message{ID: id, Src: in.Src, Dsts: dsts, Op: packet.OpSynthetic})
			}
		}
		buf = net.Step(buf[:0])
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func BenchmarkStepSteadyState(b *testing.B) {
	b.Run("Optical", func(b *testing.B) {
		stepSteadyState(b, core.New(core.DefaultConfig()), 0.10)
	})
	b.Run("Electrical", func(b *testing.B) {
		stepSteadyState(b, electrical.New(electrical.DefaultConfig()), 0.10)
	})
}

// BenchmarkRunRate measures the full harness (injection bookkeeping,
// latency accounting, drain) at a comfortably low load and near the
// optical network's saturation knee. Run with -benchmem: the per-op
// allocations are dominated by one-time setup, not the cycle loop.
func BenchmarkRunRate(b *testing.B) {
	bench := func(build func() sim.Network, rate float64) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.RunRate(build(), sim.RateConfig{
					Pattern: traffic.UniformRandom(64, 1),
					Rate:    rate, Warmup: 100, Measure: 400, Seed: 2,
				})
			}
		}
	}
	b.Run("Optical/low", bench(func() sim.Network { return core.New(core.DefaultConfig()) }, 0.05))
	b.Run("Optical/saturation", bench(func() sim.Network { return core.New(core.DefaultConfig()) }, 0.40))
	b.Run("Electrical/low", bench(func() sim.Network { return electrical.New(electrical.DefaultConfig()) }, 0.05))
	b.Run("Electrical/saturation", bench(func() sim.Network { return electrical.New(electrical.DefaultConfig()) }, 0.25))
}

func BenchmarkBuildBroadcast(b *testing.B) {
	m := mesh.New(8, 8)
	for i := 0; i < b.N; i++ {
		packet.BuildBroadcast(m, mesh.NodeID(i%64), 4)
	}
}

func BenchmarkISLIPMatch(b *testing.B) {
	a := islip.New(5, 4, 4, 2)
	// Checkerboard requests: input in wants output o when in+o is even.
	req := make([]uint64, 4)
	for o := range req {
		for in := 0; in < 5; in++ {
			if (in+o)%2 == 0 {
				req[o] |= 1 << uint(in)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Match(req)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p, err := coherence.BenchmarkByName("Water-Spatial")
	if err != nil {
		b.Fatal(err)
	}
	p.Messages = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationArbiterPolicy: Section 7's future-work question -
// does a smarter electrical-buffer relaunch arbiter beat rotating priority?
func BenchmarkAblationArbiterPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rot := ablationRun(b, "Ocean", nil)
		old := ablationRun(b, "Ocean", func(c *core.Config) { c.Arbiter = core.ArbOldestFirst })
		lng := ablationRun(b, "Ocean", func(c *core.Config) { c.Arbiter = core.ArbLongestQueue })
		b.ReportMetric(rot, "rotating-latency")
		b.ReportMetric(old, "oldest-first-latency")
		b.ReportMetric(lng, "longest-queue-latency")
	}
}

// BenchmarkComparison: the four-architecture shoot-out quantifying the
// paper's Section 1/6 arguments (Phastlane vs electrical vs Corona-style
// bus vs circuit switching).
func BenchmarkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := figures.Compare(figures.CompareOpts{
			Messages: 3000, Measure: 1000, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore("comparison", true); !done {
			fmt.Println(figures.CompareTable(results, nil))
		}
		for _, r := range results {
			if r.Config == "Optical4" {
				b.ReportMetric(r.TraceLatency, "phastlane-coherence-latency")
			}
		}
	}
}

// BenchmarkScalability: Phastlane beyond the paper's 8x8, using the
// truncated-control extension (interim nodes rebuild over-long routes).
func BenchmarkScalability(b *testing.B) {
	for _, size := range []int{4, 8, 16} {
		size := size
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Width, cfg.Height = size, size
				r := sim.RunRate(core.New(cfg), sim.RateConfig{
					Pattern: traffic.UniformRandom(size*size, 5),
					Rate:    0.05, Warmup: 200, Measure: 1000, Seed: 5,
				})
				b.ReportMetric(r.Run.Latency.Mean(), "latency-cycles")
			}
		})
	}
}

// BenchmarkProtocolComparison: snoopy (the paper's model, broadcast-heavy,
// where Phastlane's multicast sweeps shine) versus a directory protocol
// (beyond the paper: unicast-only traffic) on both networks.
func BenchmarkProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, proto := range []coherence.Protocol{coherence.Snoopy, coherence.DirectoryMSI} {
			p, err := coherence.BenchmarkByName("Barnes")
			if err != nil {
				b.Fatal(err)
			}
			p.Messages = 4000
			p.Protocol = proto
			tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), 29)
			if err != nil {
				b.Fatal(err)
			}
			opt, err := sim.RunTrace(core.New(core.DefaultConfig()), tr, sim.ReplayConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ele, err := sim.RunTrace(electrical.New(electrical.DefaultConfig()), tr, sim.ReplayConfig{})
			if err != nil {
				b.Fatal(err)
			}
			speedup := ele.Run.Latency.Mean() / opt.Run.Latency.Mean()
			b.ReportMetric(speedup, proto.String()+"-speedup-x")
		}
	}
}
