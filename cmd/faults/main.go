// Command faults studies how the two networks degrade as hardware dies.
// By default it sweeps randomly-placed fault plans along three axes —
// dead links, stuck routers, and optical control corruption — at a fixed
// offered load, and reports delivered throughput, latency and lost
// traffic for each fault level (the degradation curves). With -faults it
// instead runs one user-specified fault scenario on both simulators and
// reports the outcome.
//
// The JSON report contains no timestamps or wall-clock data: two runs
// with the same flags produce byte-identical output.
//
// Usage:
//
//	faults                                  # full degradation sweep
//	faults -csv                             # sweep as CSV
//	faults -json FAULTS_degradation.json    # sweep + JSON report
//	faults -faults 'seed=3;dead-link@9:E;stuck@27' -rate 0.1
//	faults -faults @plan.json               # JSON fault plan from a file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"phastlane/internal/cliflags"

	"phastlane/internal/figures"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
	"phastlane/internal/traffic"
)

// report is the JSON document for the sweep mode. It carries only the
// sweep inputs and measured outputs — nothing host- or time-dependent —
// so repeated runs are byte-identical.
type report struct {
	Rate    float64                    `json:"offered_rate"`
	Warmup  int                        `json:"warmup_cycles"`
	Measure int                        `json:"measure_cycles"`
	Trials  int                        `json:"trials_per_point"`
	Seed    int64                      `json:"seed"`
	Points  []figures.DegradationPoint `json:"points"`
}

func main() {
	spec := flag.String("faults", "", "run one fault scenario: a fault spec, inline JSON, or @file")
	rate := flag.Float64("rate", 0.10, "offered load (packets/node/cycle)")
	warmup := flag.Int("warmup", 300, "warmup cycles per point")
	measure := flag.Int("measure", 1500, "measurement cycles per point")
	trials := flag.Int("trials", 2, "fault placements averaged per sweep point")
	seed := cliflags.Seed(flag.CommandLine)
	workers := flag.Int("workers", 0, "worker pool size (0 = one per core)")
	csv := flag.Bool("csv", false, "emit the sweep as CSV")
	jsonPath := flag.String("json", "", "also write the sweep report to this JSON file")
	plots := flag.Bool("plots", false, "render ASCII degradation plots")
	telemetryAddr := cliflags.TelemetryAddr(flag.CommandLine)
	flag.Parse()
	if _, err := telemetry.Start(*telemetryAddr, nil); err != nil {
		fail(err)
	}

	if *spec != "" {
		runScenario(*spec, *rate, *warmup, *measure, *seed)
		return
	}

	pts := figures.Degradation(figures.DegradationOpts{
		Rate: *rate, Warmup: *warmup, Measure: *measure,
		Trials: *trials, Seed: *seed, Workers: *workers,
	})
	table := figures.DegradationTable(pts)
	if *csv {
		fmt.Print(table.CSV())
	} else {
		fmt.Println(table)
	}
	if *plots {
		for _, axis := range []string{"dead-links", "stuck-routers", "corruption"} {
			fmt.Println(figures.DegradationPlot(axis, pts))
		}
	}
	if *jsonPath != "" {
		doc, err := json.MarshalIndent(report{
			Rate: *rate, Warmup: *warmup, Measure: *measure,
			Trials: *trials, Seed: *seed, Points: pts,
		}, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(doc, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d points)\n", *jsonPath, len(pts))
	}
}

// runScenario drives one fault plan through both simulators at the given
// load and reports delivery outcomes side by side.
func runScenario(arg string, rate float64, warmup, measure int, seed int64) {
	plan, err := cliflags.ParseFaultArg(arg)
	if err != nil {
		fail(err)
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Fault scenario %q at offered %.3f", plan.Spec(), rate),
		Columns: []string{"config", "delivered", "throughput", "latency", "lost", "unreachable", "corrupt", "saturated"},
	}
	for _, name := range []string{"Optical4", "Electrical3"} {
		net, err := figures.DegradationNet(name, plan, seed)
		if err != nil {
			fail(err)
		}
		res := sim.RunRate(net, sim.RateConfig{
			Pattern: traffic.UniformRandom(64, seed+7),
			Rate:    rate, Warmup: warmup, Measure: measure, Seed: seed,
		})
		sat := ""
		if res.Saturated {
			sat = "sat"
		}
		t.AddRow(name, fmt.Sprint(res.Run.Delivered),
			stats.F(res.Run.ThroughputPerNode(net.Nodes())),
			stats.F(res.Run.Latency.Mean()),
			fmt.Sprint(res.Lost), fmt.Sprint(res.Run.Unreachable),
			fmt.Sprint(res.Run.Corrupt), sat)
	}
	fmt.Println(t)
}

func fail(err error) { cliflags.Fail("faults", err) }
