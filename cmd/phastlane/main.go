// Command phastlane runs one Phastlane optical-network simulation and
// reports latency, throughput, drops and power. Traffic is either a
// synthetic pattern at a fixed injection rate or a trace file produced by
// tracegen. With -topo benes or -topo shufflecast the run uses the
// generic fabric simulator over that topology instead of the mesh
// optical model; the mesh-only flags (-hops, -buffers, -trace, -faults,
// -retry-limit) are rejected there.
//
// Usage:
//
//	phastlane -traffic Uniform -rate 0.1
//	phastlane -traffic Transpose -rate 0.2 -hops 5 -buffers 32
//	phastlane -trace ocean.trace
//	phastlane -topo benes -width 8 -height 1 -rate 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/packet"
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
)

func main() {
	p := cliflags.RegisterPoint(flag.CommandLine, "optical")
	flag.Parse()
	if err := p.Run(os.Stdout, report); err != nil {
		cliflags.Fail("phastlane", err)
	}
}

func report(res sim.Result, nodes int) {
	for op := packet.Op(0); op < packet.NumOps; op++ {
		if l := res.LatencyByOp[op]; l != nil {
			fmt.Printf("  %-10s %6d msgs, avg latency %6.1f cycles\n", op, l.Count(), l.Mean())
		}
	}
	fmt.Printf("delivered %d messages; avg latency %.2f cycles (p99 %.0f, max %.0f)\n",
		res.Run.Delivered, res.Run.Latency.Mean(), res.Run.Latency.Percentile(99), res.Run.Latency.Max())
	fmt.Printf("throughput %.4f pkts/node/cycle; drops %d; retries %d; buffered %d\n",
		res.Run.ThroughputPerNode(nodes), res.Run.Drops, res.Run.Retries, res.Run.BufferedPackets)
	if res.Lost > 0 || res.Run.Unreachable > 0 || res.Run.Corrupt > 0 {
		fmt.Printf("lost %d; unreachable probes %d; corrupted hops %d; unresolved %d\n",
			res.Lost, res.Run.Unreachable, res.Run.Corrupt, res.Unresolved)
	}
	fmt.Printf("network power %.2f W (optical %.2f W, electrical %.2f W, leakage %.2f W)\n",
		res.Run.PowerW(photonic.DefaultClockGHz),
		powerShare(res, res.Run.OpticalEnergyPJ),
		powerShare(res, res.Run.ElectricalEnergyPJ),
		powerShare(res, res.Run.LeakagePJ))
	if res.Saturated {
		fmt.Println("NOTE: the network saturated at this load")
	}
}

func powerShare(res sim.Result, pj float64) float64 {
	total := res.Run.TotalEnergyPJ()
	if total == 0 {
		return 0
	}
	return res.Run.PowerW(photonic.DefaultClockGHz) * pj / total
}
