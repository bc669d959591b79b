// Command electrical runs one baseline electrical-network simulation (the
// Table 2 virtual-channel router mesh) and reports latency, throughput and
// power, mirroring cmd/phastlane for head-to-head comparisons.
//
// With -topo benes or -topo shufflecast the run uses the generic fabric
// simulator over that topology with the same per-hop router delay; the
// mesh-only flags (-trace, -faults) are rejected there.
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
	"phastlane/internal/photonic"
	"phastlane/internal/sim"
)

func main() {
	p := cliflags.RegisterPoint(flag.CommandLine, "electrical")
	flag.Parse()
	if err := p.Run(os.Stdout, report); err != nil {
		cliflags.Fail("electrical", err)
	}
}

func report(res sim.Result, nodes int) {
	fmt.Printf("delivered %d messages; avg latency %.2f cycles (p99 %.0f)\n",
		res.Run.Delivered, res.Run.Latency.Mean(), res.Run.Latency.Percentile(99))
	fmt.Printf("throughput %.4f pkts/node/cycle; network power %.2f W\n",
		res.Run.ThroughputPerNode(nodes), res.Run.PowerW(photonic.DefaultClockGHz))
	if res.Lost > 0 {
		fmt.Printf("lost %d; unresolved %d\n", res.Lost, res.Unresolved)
	}
	if res.Saturated {
		fmt.Println("NOTE: the network saturated at this load")
	}
}
