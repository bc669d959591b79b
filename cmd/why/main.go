// Command why answers "where did the latency go?" for one (configuration,
// pattern, rate) point: it replays the run with per-packet latency
// provenance attached, deterministically samples the slowest packets, and
// prints a tail-blame report — the per-stage latency decomposition of the
// whole run and of the slow cohort, the routers and links ranked by
// queueing time they contributed, and the slowest packet's hop-by-hop
// span tree. The same report can be written as JSON (the CI gate parses
// it) and the sampled span trees as a Perfetto trace.
//
// The run is the same deterministic replay cmd/inspect performs, so a
// sweep point can be explained after the fact by re-running its seed.
//
// Usage:
//
//	why                                   # both networks, uniform 0.10
//	why -net optical -rate 0.3            # one network, past the knee
//	why -why-sample 128 -why-top 20       # bigger cohort, longer tables
//	why -why-out report.json              # machine-readable report
//	why -trace-out why.json               # span trees for ui.perfetto.dev
//	why -min-attrib 0.95                  # fail unless 95% attributed
//	why -telemetry-addr :9090             # live tail quantiles + stages
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/figures"
	"phastlane/internal/provenance"
)

func main() {
	d := cliflags.RegisterDeepDive(flag.CommandLine, "explain")
	whyOut := flag.String("why-out", "", "write the tail-blame reports as a JSON array to this file")
	traceOut := flag.String("trace-out", "", "write the sampled span trees as Perfetto trace-event JSON to this file")
	minAttrib := flag.Float64("min-attrib", 0.95,
		"fail unless every sampled packet's named stages explain at least this latency fraction")
	why := provenance.RegisterAlwaysOn(flag.CommandLine)
	flag.Parse()
	why.Clamp()

	results, err := d.Run(why, figures.BundleOpts{TracePath: *traceOut, WhyTop: why.Top}, os.Stdout)
	if err != nil {
		fail(err)
	}

	var reports []*provenance.Report
	failed := false
	for i := range results {
		rep := results[i].Prov.Report(results[i].Name)
		reports = append(reports, rep)
		if rep.Cohort == 0 {
			fmt.Fprintf(os.Stderr, "why: %s completed no packets\n", rep.Name)
			failed = true
			continue
		}
		if rep.AttributionMin < *minAttrib {
			fmt.Fprintf(os.Stderr, "why: %s attribution min %.3f below -min-attrib %.3f\n",
				rep.Name, rep.AttributionMin, *minAttrib)
			failed = true
		}
	}
	if *whyOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*whyOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d reports)\n", *whyOut, len(reports))
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) { cliflags.Fail("why", err) }
