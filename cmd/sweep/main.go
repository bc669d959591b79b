// Command sweep regenerates Fig. 9: average packet latency versus injection
// rate for the bit-complement, bit-reverse, shuffle and transpose patterns
// on the optical 4/5/8-hop networks and the 2- and 3-cycle electrical
// baselines. The (pattern x config) curves fan out over a worker pool;
// results are bit-identical for any worker count.
//
// Usage:
//
//	sweep                        # all four patterns, default rate grid
//	sweep -pattern Shuffle       # one pattern
//	sweep -measure 8000          # longer measurement windows
//	sweep -parallel 4            # explicit worker count (0 = all cores)
//	sweep -tails -csv            # long form with p50/p95/p99 columns
//	sweep -heatmap -trace-out t.json  # deep-dive each curve's knee point
//	sweep -why                   # tail-blame report at each curve's knee
package main

import (
	"flag"
	"fmt"
	"os"
	"phastlane/internal/cliflags"
	"strconv"
	"strings"
	"time"

	"phastlane/internal/exp"
	"phastlane/internal/figures"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
)

func main() {
	pattern := flag.String("pattern", "", "restrict to one pattern (BitComp, BitRev, Shuffle, Transpose)")
	plot := flag.Bool("plot", false, "render ASCII charts instead of tables")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	measure := flag.Int("measure", 4000, "measurement cycles per point")
	warmup := flag.Int("warmup", 1000, "warmup cycles per point")
	seed := cliflags.Seed(flag.CommandLine)
	parallel := flag.Int("parallel", 0, "worker pool size (0 = one per core)")
	quiet := flag.Bool("quiet", false, "suppress progress log lines")
	ratesFlag := flag.String("rates", "", "comma-separated injection rates (default grid if empty)")
	tails := flag.Bool("tails", false, "emit long-form tables with p50/p95/p99 latency columns")
	traceOut := flag.String("trace-out", "", "re-run each curve's knee point and write a Perfetto trace to this file")
	metricsOut := flag.String("metrics-out", "", "write the knee points' per-node event matrices as CSV to this file")
	heatmap := flag.Bool("heatmap", false, "print link-utilization and drop heatmaps for each curve's knee point")
	telemetryAddr := cliflags.TelemetryAddr(flag.CommandLine)
	why := provenance.RegisterFlags(flag.CommandLine)
	flag.Parse()
	why.Clamp()
	if _, err := telemetry.Start(*telemetryAddr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	opts := figures.Fig9Opts{Warmup: *warmup, Measure: *measure, Seed: *seed, Workers: *parallel}
	if !*quiet {
		opts.Progress = exp.Logger(os.Stderr, "sweep", 2*time.Second)
	}
	if *ratesFlag != "" {
		for _, f := range strings.Split(*ratesFlag, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: bad rate %q: %v\n", f, err)
				os.Exit(2)
			}
			opts.Rates = append(opts.Rates, r)
		}
	}
	start := time.Now()
	results := figures.Fig9(opts)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: done in %.1fs\n", time.Since(start).Seconds())
	}
	table := func(res figures.Fig9Result) *stats.Table {
		if *tails {
			return figures.Fig9TailTable(res)
		}
		return figures.Fig9Table(res)
	}
	for _, res := range results {
		if *pattern != "" && res.Pattern != *pattern {
			continue
		}
		switch {
		case *plot:
			fmt.Println(figures.Fig9Plot(res))
		case *csv:
			fmt.Print(table(res).CSV())
		default:
			fmt.Println(table(res))
		}
	}

	bundle := figures.BundleOpts{TracePath: *traceOut, MetricsPath: *metricsOut, Heatmap: *heatmap, WhyTop: why.Top}
	if !bundle.Enabled() && !why.Why {
		return
	}
	// Deep-dive each displayed curve at its saturation knee (the highest
	// rate that stayed unsaturated; the lowest swept rate if none did).
	var inspects []figures.InspectOpts
	for _, res := range results {
		if *pattern != "" && res.Pattern != *pattern {
			continue
		}
		for _, curve := range res.Curves {
			if len(curve.Points) == 0 {
				continue
			}
			rate := sim.SaturationRate(curve.Points)
			if rate == 0 {
				rate = curve.Points[0].Rate
			}
			cfg, ok := configByName(curve.Config)
			if !ok {
				continue
			}
			p, err := figures.PatternByName(res.Pattern, 64, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(2)
			}
			inspects = append(inspects, figures.InspectOpts{
				Name: res.Pattern + "/" + curve.Config, Build: cfg.Build,
				Width: 8, Height: 8, Pattern: p, Rate: rate,
				Warmup: *warmup, Measure: *measure, Seed: *seed,
			})
		}
	}
	if why.Why {
		figures.AttachProvenance(inspects, why.Sample, nil)
	}
	if _, err := figures.InspectBundle(inspects, exp.Options{Workers: *parallel}, bundle, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func configByName(name string) (figures.NetConfig, bool) {
	for _, c := range figures.Fig9Configs() {
		if c.Name == name {
			return c, true
		}
	}
	return figures.NetConfig{}, false
}
