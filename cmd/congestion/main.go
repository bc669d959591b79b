// Command congestion runs the closed-loop congestion-control studies:
// the governed sweep (ungoverned vs static backoff vs delay-gradient
// AIMD senders across the saturation knee) and the fault-recovery trace
// (AIMD senders backing off through a mid-run dead-link window and
// re-converging after the heal).
//
// The JSON report contains no timestamps or wall-clock data: two runs
// with the same flags produce byte-identical output.
//
// Usage:
//
//	congestion                               # full sweep + recovery study
//	congestion -csv                          # sweep as CSV
//	congestion -json CC_governed.json        # sweep + JSON report
//	congestion -plots                        # ASCII throughput/p99/recovery plots
//	congestion -configs Optical4 -patterns BitComp -rates 0.5 -recovery=false
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"phastlane/internal/cliflags"
	"phastlane/internal/figures"
	"phastlane/internal/telemetry"
)

// report is the JSON document: sweep inputs, sweep points, and (unless
// disabled) the recovery study. Nothing host- or time-dependent.
type report struct {
	Configs    []string                `json:"configs"`
	Patterns   []string                `json:"patterns"`
	Rates      []float64               `json:"rates"`
	StaticRate float64                 `json:"static_rate"`
	Warmup     int                     `json:"warmup_cycles"`
	Measure    int                     `json:"measure_cycles"`
	Seed       int64                   `json:"seed"`
	Points     []figures.GovernedPoint `json:"points"`
	Recovery   *figures.RecoveryResult `json:"recovery,omitempty"`
}

func main() {
	configs := flag.String("configs", "", "comma-separated network variants (default Optical4,Electrical3)")
	patterns := flag.String("patterns", "", "comma-separated traffic patterns (default Uniform,BitComp)")
	rates := flag.String("rates", "", "comma-separated offered loads (default 0.30,0.40,0.50,0.60,0.70)")
	static := flag.Float64("static", 0, "static-backoff cap (0 = default 0.30)")
	warmup := flag.Int("warmup", 300, "warmup cycles per point")
	measure := flag.Int("measure", 2000, "measurement cycles per point")
	recovery := flag.Bool("recovery", true, "also run the dead-link back-off/re-convergence study")
	recoveryMeasure := flag.Int("recovery-measure", 6000, "measurement cycles for the recovery study")
	seed := cliflags.Seed(flag.CommandLine)
	workers := flag.Int("workers", 0, "worker pool size (0 = one per core)")
	csv := flag.Bool("csv", false, "emit the sweep as CSV")
	jsonPath := flag.String("json", "", "also write the report to this JSON file")
	plots := flag.Bool("plots", false, "render ASCII throughput, tail and recovery plots")
	telemetryAddr := cliflags.TelemetryAddr(flag.CommandLine)
	flag.Parse()
	if _, err := telemetry.Start(*telemetryAddr, nil); err != nil {
		fail(err)
	}

	opts := figures.GovernedOpts{
		Configs: splitList(*configs), Patterns: splitList(*patterns),
		StaticRate: *static,
		Warmup:     *warmup, Measure: *measure,
		Seed: *seed, Workers: *workers,
	}
	for _, f := range splitList(*rates) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fail(fmt.Errorf("bad -rates entry %q: %v", f, err))
		}
		opts.Rates = append(opts.Rates, r)
	}
	if err := opts.Validate(); err != nil {
		fail(err)
	}
	pts := figures.Governed(opts)

	table := figures.GovernedTable(pts)
	if *csv {
		fmt.Print(table.CSV())
	} else {
		fmt.Println(table)
	}

	rep := report{
		Configs: orDefault(opts.Configs, []string{"Optical4", "Electrical3"}),
		Patterns: orDefault(opts.Patterns,
			[]string{"Uniform", "BitComp"}),
		Rates:      orDefaultF(opts.Rates, []float64{0.30, 0.40, 0.50, 0.60, 0.70}),
		StaticRate: *static,
		Warmup:     *warmup, Measure: *measure, Seed: *seed,
		Points: pts,
	}
	if rep.StaticRate == 0 {
		rep.StaticRate = 0.30
	}

	if *plots {
		for _, config := range rep.Configs {
			for _, pattern := range rep.Patterns {
				fmt.Println(figures.GovernedPlot(config, pattern, pts))
				fmt.Println(figures.GovernedTailPlot(config, pattern, pts))
			}
		}
	}

	if *recovery {
		const deadLinks = 6
		rec := figures.GovernedRecovery(figures.RecoveryOpts{
			DeadLinks: deadLinks, Measure: *recoveryMeasure, Seed: *seed,
		})
		rep.Recovery = &rec
		fmt.Printf("recovery: rate %.4f pre-fault -> %.4f with %d bisection links dead -> %.4f after heal (%d delivered, %d lost)\n",
			rec.PreRate, rec.FaultRate, deadLinks, rec.PostRate, rec.Delivered, rec.Lost)
		if *plots {
			fmt.Println(figures.RecoveryPlot(rec))
		}
	}

	if *jsonPath != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(doc, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d points)\n", *jsonPath, len(pts))
	}
}

// splitList parses a comma-separated flag value, dropping empty entries
// so "" means "use the default".
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func orDefault(v, def []string) []string {
	if len(v) == 0 {
		return def
	}
	return v
}

func orDefaultF(v, def []float64) []float64 {
	if len(v) == 0 {
		return def
	}
	return v
}

func fail(err error) { cliflags.Fail("congestion", err) }
