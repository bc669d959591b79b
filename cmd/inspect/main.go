// Command inspect replays one (configuration, rate) point with the full
// observability bundle attached and dumps everything it sees: a summary
// table, per-node event matrices, cycle-windowed time series, ASCII
// link-utilization and drop heatmaps, and a Perfetto-compatible event
// trace that loads in ui.perfetto.dev or chrome://tracing. It is the deep
// dive behind a single point of a cmd/sweep curve.
//
// Usage:
//
//	inspect                                  # both networks, uniform 0.10
//	inspect -net optical -rate 0.3 -heatmap  # one network, past the knee
//	inspect -trace-out trace.json            # Perfetto trace of both
//	inspect -metrics-out m.csv -series-out s.csv
//	inspect -width 4 -height 4 -measure 500  # small mesh, short run
//	inspect -topo benes -width 8 -height 1   # deep-dive an indirect fabric
//	inspect -telemetry-addr :9090            # live metrics + pprof endpoint
//	inspect -why -rate 0.3                   # per-packet tail-blame report
package main

import (
	"flag"
	"os"

	"phastlane/internal/cliflags"
	"phastlane/internal/figures"
	"phastlane/internal/provenance"
)

func main() {
	d := cliflags.RegisterDeepDive(flag.CommandLine, "inspect")
	flag.Int64Var(&d.Window, "window", 0, "sampler bin width in cycles (0 = default)")
	traceOut := flag.String("trace-out", "", "write Perfetto trace-event JSON to this file")
	metricsOut := flag.String("metrics-out", "", "write per-node event matrices as CSV to this file")
	seriesOut := flag.String("series-out", "", "write cycle-windowed time series as CSV to this file")
	heatmap := flag.Bool("heatmap", false, "print link-utilization and drop heatmaps")
	why := provenance.RegisterFlags(flag.CommandLine)
	flag.Parse()
	why.Clamp()

	_, err := d.Run(why, figures.BundleOpts{
		TracePath: *traceOut, MetricsPath: *metricsOut, SeriesPath: *seriesOut,
		Heatmap: *heatmap, WhyTop: why.Top,
	}, os.Stdout)
	if err != nil {
		cliflags.Fail("inspect", err)
	}
}
