// Command electrical runs one baseline electrical-network simulation (the
// Table 2 virtual-channel router mesh) and reports latency, throughput and
// power, mirroring cmd/phastlane for head-to-head comparisons.
//
// With -topo benes or -topo shufflecast the run uses the generic fabric
// simulator over that topology with the same per-hop router delay
// (synthetic traffic only).
//
// Usage:
//
//	electrical -traffic Uniform -rate 0.1
//	electrical -delay 2 -trace ocean.trace
//	electrical -topo shufflecast -width 8 -height 1 -arity 2
package main

import (
	"flag"
	"fmt"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/electrical"
	"phastlane/internal/figures"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
)

func main() {
	trafficName := flag.String("traffic", "Uniform", "pattern: Uniform, BitComp, BitRev, Shuffle, Transpose")
	rate := flag.Float64("rate", 0.05, "injection rate (packets/node/cycle)")
	tracePath := flag.String("trace", "", "replay a trace file instead of synthetic traffic")
	delay := flag.Int("delay", 3, "per-hop router delay in cycles (2 or 3)")
	geo := cliflags.RegisterGeometry(flag.CommandLine)
	measure := flag.Int("measure", 4000, "measurement cycles (synthetic traffic)")
	seed := cliflags.Seed(flag.CommandLine)
	faultSpec := flag.String("faults", "", "fault plan: spec string, inline JSON, or @file")
	lossTimeout := flag.Int64("loss-timeout", 0, "cycles before an undelivered packet is declared lost (0 = never)")
	ccFlags := cliflags.RegisterCC(flag.CommandLine)
	telFlags := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var net sim.Network
	if geo.IsMesh() {
		cfg := electrical.DefaultConfig()
		cfg.Width, cfg.Height = geo.Width, geo.Height
		cfg.RouterDelay = *delay
		cfg.Seed = *seed
		cfg.LossTimeout = *lossTimeout
		if *faultSpec != "" {
			plan, err := cliflags.ParseFaultArg(*faultSpec)
			if err != nil {
				fail(err)
			}
			cfg.Faults = plan
		}
		if err := cfg.Validate(); err != nil {
			fail(err)
		}
		net = electrical.New(cfg)
	} else {
		if *tracePath != "" {
			fail(geo.RequireMesh("-trace replay"))
		}
		if *faultSpec != "" {
			fail(geo.RequireMesh("-faults"))
		}
		fnet, err := geo.FabricNetwork(*delay, *lossTimeout, *seed)
		if err != nil {
			fail(err)
		}
		net = fnet
		fmt.Printf("fabric %s: %d endpoints, %d nodes\n",
			geo.Topo, fnet.Topology().Endpoints(), fnet.Topology().Nodes())
	}
	tel, err := telFlags.StartRun()
	if err != nil {
		fail(err)
	}

	var res sim.Result
	if *tracePath != "" {
		if ccFlags.Enabled {
			fail(fmt.Errorf("-cc applies to synthetic-traffic runs, not -trace replay"))
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			fail(err)
		}
		res, err = sim.RunTrace(net, tr, sim.ReplayConfig{Telemetry: tel})
		if err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d messages, makespan %d cycles\n", len(tr.Messages), res.Makespan)
	} else {
		pattern, err := figures.PatternByName(*trafficName, net.Nodes(), *seed)
		if err != nil {
			fail(err)
		}
		gov, err := ccFlags.Governor(net.Nodes(), *seed)
		if err != nil {
			fail(err)
		}
		if gov != nil && tel != nil {
			gov.Register(tel.Reg)
		}
		res = sim.RunRate(net, sim.RateConfig{
			Pattern: pattern, Rate: *rate, Measure: *measure, Seed: *seed,
			Telemetry: tel, CC: gov,
		})
		fmt.Printf("pattern %s at rate %.3f over %d cycles\n", *trafficName, *rate, *measure)
		if gov != nil {
			fmt.Printf("cc: mean admitted rate %.4f pkts/node/cycle; %d injections paced\n",
				gov.MeanRate(), res.Paced)
		}
	}
	fmt.Printf("delivered %d messages; avg latency %.2f cycles (p99 %.0f)\n",
		res.Run.Delivered, res.Run.Latency.Mean(), res.Run.Latency.Percentile(99))
	fmt.Printf("throughput %.4f pkts/node/cycle; network power %.2f W\n",
		res.Run.ThroughputPerNode(net.Nodes()), res.Run.PowerW(photonic.DefaultClockGHz))
	if res.Lost > 0 {
		fmt.Printf("lost %d; unresolved %d\n", res.Lost, res.Unresolved)
	}
	if res.Saturated {
		fmt.Println("NOTE: the network saturated at this load")
	}
	if err := telFlags.Finish(tel, os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) { cliflags.Fail("electrical", err) }
