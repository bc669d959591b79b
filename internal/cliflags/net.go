package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"phastlane/internal/cc"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/exp"
	"phastlane/internal/fabsim"
	"phastlane/internal/fault"
	"phastlane/internal/figures"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
	"phastlane/internal/traffic"
)

// Net is the network-selection block of the single-point commands
// (phastlane, electrical, inspect, why): the geometry, which mesh
// models to build, and the knobs of those models. A knob the command
// does not register keeps its zero value, which every model reads as
// "off" or never reads.
type Net struct {
	Geo *Geometry
	// Model selects the mesh simulators: "both", "optical" or
	// "electrical". inspect and why read it from -net; phastlane and
	// electrical fix it.
	Model string
	// Hops and Buffers configure the optical model, Delay the
	// electrical one. On a fabric, a fixed electrical command's Delay
	// becomes the fabric simulator's router delay.
	Hops, Buffers, Delay int
	// Faults is a -faults argument (see ParseFaultArg); RetryLimit and
	// LossTimeout arm the delivery layer.
	Faults      string
	RetryLimit  int
	LossTimeout int64

	fs *flag.FlagSet
}

// meshOnly names the flags a fabric cannot honour, as RequireMesh
// reports them.
var meshOnly = map[string]string{
	"net":         "-net",
	"hops":        "-hops",
	"buffers":     "-buffers",
	"delay":       "-delay",
	"trace":       "-trace replay",
	"faults":      "-faults",
	"retry-limit": "-retry-limit (fabric simulators have no drop/retry protocol)",
}

// Networks turns the parsed flags into the networks they select: the
// optical and/or electrical mesh models, or one fabric-simulator
// network over an indirect fabric. Every configuration is validated
// here, so a bad flag fails before anything runs; on a fabric, any
// explicitly set flag the fabric cannot honour is an error.
func (n *Net) Networks() ([]figures.NetConfig, error) {
	switch n.Model {
	case "both", "optical", "electrical":
	default:
		return nil, fmt.Errorf("unknown -net %q (want both, optical or electrical)", n.Model)
	}
	if !n.Geo.IsMesh() {
		return n.fabric()
	}
	var plan *fault.Plan
	if n.Faults != "" {
		var err error
		if plan, err = ParseFaultArg(n.Faults); err != nil {
			return nil, err
		}
	}
	var nets []figures.NetConfig
	if n.Model != "electrical" {
		cfg := core.DefaultConfig()
		cfg.Width, cfg.Height = n.Geo.Width, n.Geo.Height
		cfg.MaxHops = n.Hops
		cfg.BufferEntries = n.Buffers
		cfg.RetryLimit = n.RetryLimit
		cfg.LossTimeout = n.LossTimeout
		cfg.Faults = plan
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		nets = append(nets, figures.NetConfig{Name: "optical", Optical: true,
			Build: func(seed int64) sim.Network {
				c := cfg
				c.Seed = seed
				return core.New(c)
			}})
	}
	if n.Model != "optical" {
		cfg := electrical.DefaultConfig()
		cfg.Width, cfg.Height = n.Geo.Width, n.Geo.Height
		cfg.RouterDelay = n.Delay
		cfg.LossTimeout = n.LossTimeout
		cfg.Faults = plan
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		nets = append(nets, figures.NetConfig{Name: "electrical",
			Build: func(seed int64) sim.Network {
				c := cfg
				c.Seed = seed
				return electrical.New(c)
			}})
	}
	return nets, nil
}

// fabric builds the fabric-simulator network over an indirect fabric.
func (n *Net) fabric() ([]figures.NetConfig, error) {
	t, err := n.Geo.Build()
	if err != nil {
		return nil, err
	}
	electricalDelay := n.Model == "electrical"
	n.fs.Visit(func(f *flag.Flag) {
		feature, ok := meshOnly[f.Name]
		if ok && err == nil && !(f.Name == "delay" && electricalDelay) {
			err = n.Geo.RequireMesh(feature)
		}
	})
	if err != nil {
		return nil, err
	}
	cfg := fabsim.DefaultConfig(t)
	if electricalDelay && n.Delay > 0 {
		cfg.RouterDelay = n.Delay
	}
	cfg.LossTimeout = n.LossTimeout
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return []figures.NetConfig{{Name: n.Geo.Topo, Topo: t,
		Build: func(seed int64) sim.Network {
			c := cfg
			c.Seed = seed
			return fabsim.New(c)
		}}}, nil
}

// Point is the flag surface of the single-run commands phastlane and
// electrical: one network, driven by a trace replay or by synthetic
// traffic, optionally governed and instrumented.
type Point struct {
	Net     *Net
	Traffic string
	Rate    float64
	Trace   string
	Measure int
	Seed    *int64
	CC      *CC
	Tel     *telemetry.CLI
}

// RegisterPoint registers the single-run flags on fs for a command
// whose mesh model is fixed to model ("optical" or "electrical").
func RegisterPoint(fs *flag.FlagSet, model string) *Point {
	n := &Net{Model: model, fs: fs}
	p := &Point{Net: n}
	fs.StringVar(&p.Traffic, "traffic", "Uniform", "pattern: Uniform, BitComp, BitRev, Shuffle, Transpose")
	fs.Float64Var(&p.Rate, "rate", 0.05, "injection rate (packets/node/cycle)")
	fs.StringVar(&p.Trace, "trace", "", "replay a trace file instead of synthetic traffic")
	n.Geo = RegisterGeometry(fs)
	fs.IntVar(&p.Measure, "measure", 4000, "measurement cycles (synthetic traffic)")
	p.Seed = Seed(fs)
	fs.StringVar(&n.Faults, "faults", "", "fault plan: spec string, inline JSON, or @file")
	fs.Int64Var(&n.LossTimeout, "loss-timeout", 0, "cycles before an undelivered packet is declared lost (0 = never)")
	if model == "optical" {
		fs.IntVar(&n.Hops, "hops", 4, "max hops per cycle (4, 5, or 8)")
		fs.IntVar(&n.Buffers, "buffers", 10, "electrical buffer entries per port (-1 = infinite)")
		fs.IntVar(&n.RetryLimit, "retry-limit", 0, "drop-retry budget per packet (0 = unlimited)")
	} else {
		fs.IntVar(&n.Delay, "delay", 3, "per-hop router delay in cycles (2 or 3)")
	}
	p.CC = RegisterCC(fs)
	p.Tel = telemetry.RegisterFlags(fs)
	return p
}

// Network validates the flags and returns the one network they select.
func (p *Point) Network() (figures.NetConfig, error) {
	nets, err := p.Net.Networks()
	if err != nil {
		return figures.NetConfig{}, err
	}
	if p.Trace != "" && p.CC.Enabled {
		return figures.NetConfig{}, fmt.Errorf("-cc applies to synthetic-traffic runs, not -trace replay")
	}
	return nets[0], nil
}

// Run performs the run the flags select, prints the shared progress
// lines to w, hands the result to report for the command's own summary,
// and closes the telemetry bundle. Every flag and input error surfaces
// before the telemetry endpoint starts.
func (p *Point) Run(w io.Writer, report func(res sim.Result, nodes int)) error {
	cfg, err := p.Network()
	if err != nil {
		return err
	}
	net := cfg.Build(*p.Seed)
	if cfg.Topo != nil {
		fmt.Fprintf(w, "fabric %s: %d endpoints, %d nodes\n",
			cfg.Name, cfg.Topo.Endpoints(), cfg.Topo.Nodes())
	}
	var (
		tr      *trace.Trace
		pattern traffic.Pattern
		gov     *cc.Governor
	)
	if p.Trace != "" {
		if tr, err = readTrace(p.Trace); err != nil {
			return err
		}
	} else {
		if pattern, err = figures.PatternByName(p.Traffic, net.Nodes(), *p.Seed); err != nil {
			return err
		}
		if gov, err = p.CC.Governor(net.Nodes(), *p.Seed); err != nil {
			return err
		}
	}
	tel, err := p.Tel.StartRun()
	if err != nil {
		return err
	}
	var res sim.Result
	if tr != nil {
		if res, err = sim.RunTrace(net, tr, sim.ReplayConfig{Telemetry: tel}); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d messages, makespan %d cycles\n", len(tr.Messages), res.Makespan)
	} else {
		if gov != nil && tel != nil {
			gov.Register(tel.Reg)
		}
		res = sim.RunRate(net, sim.RateConfig{
			Pattern: pattern, Rate: p.Rate, Measure: p.Measure, Seed: *p.Seed,
			Telemetry: tel, CC: gov,
		})
		fmt.Fprintf(w, "pattern %s at rate %.3f over %d cycles\n", p.Traffic, p.Rate, p.Measure)
		if gov != nil {
			fmt.Fprintf(w, "cc: mean admitted rate %.4f pkts/node/cycle; %d injections paced\n",
				gov.MeanRate(), res.Paced)
		}
	}
	report(res, net.Nodes())
	return p.Tel.Finish(tel, w)
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// DeepDive is the flag surface inspect and why share: the networks, one
// traffic point and the worker pool. Window is inspect's -window, which
// that command registers itself.
type DeepDive struct {
	Net             *Net
	Pattern         string
	Rate            float64
	Warmup, Measure int
	Window          int64
	Seed            *int64
	TelemetryAddr   *string
	Parallel        int
}

// RegisterDeepDive registers the deep-dive flags on fs; verb completes
// the -net help ("network to <verb>").
func RegisterDeepDive(fs *flag.FlagSet, verb string) *DeepDive {
	n := &Net{fs: fs}
	d := &DeepDive{Net: n}
	fs.StringVar(&n.Model, "net", "both", "network to "+verb+": both, optical, electrical (mesh only)")
	n.Geo = RegisterGeometry(fs)
	fs.StringVar(&d.Pattern, "pattern", "Uniform", "traffic pattern (Uniform, BitComp, BitRev, Shuffle, Transpose)")
	fs.Float64Var(&d.Rate, "rate", 0.10, "injection rate (packets/node/cycle)")
	fs.IntVar(&d.Warmup, "warmup", 500, "warmup cycles")
	fs.IntVar(&d.Measure, "measure", 2000, "measurement cycles")
	d.Seed = Seed(fs)
	fs.IntVar(&n.Hops, "hops", 4, "optical MaxHops (4, 5 or 8)")
	fs.IntVar(&n.Buffers, "buffers", 10, "optical buffer entries (-1 = infinite)")
	fs.IntVar(&n.Delay, "delay", 3, "electrical router delay in cycles (2 or 3)")
	d.TelemetryAddr = TelemetryAddr(fs)
	fs.IntVar(&d.Parallel, "parallel", 0, "worker pool size (0 = one per core)")
	return d
}

// Run replays the point on every selected network with the
// observability bundle attached, plus a provenance tracker each when
// why.Why, and writes the bundle's reports to w. With -telemetry-addr,
// the trackers stream live tail quantiles to the endpoint (CPU profiles
// come from its /debug/pprof/ during the replay).
func (d *DeepDive) Run(why *provenance.CLI, bundle figures.BundleOpts, w io.Writer) ([]figures.InspectResult, error) {
	nets, err := d.Net.Networks()
	if err != nil {
		return nil, err
	}
	opts := make([]figures.InspectOpts, len(nets))
	for i, c := range nets {
		p, err := figures.PatternByName(d.Pattern, d.Net.Geo.Endpoints(), *d.Seed)
		if err != nil {
			return nil, err
		}
		opts[i] = figures.InspectOpts{
			Name: c.Name, Build: c.Build, Topo: c.Topo,
			Width: d.Net.Geo.Width, Height: d.Net.Geo.Height,
			Pattern: p, Rate: d.Rate,
			Warmup: d.Warmup, Measure: d.Measure,
			Window: d.Window, Seed: *d.Seed,
		}
	}
	reg, err := telemetry.Start(*d.TelemetryAddr, nil)
	if err != nil {
		return nil, err
	}
	if why.Why {
		if *d.TelemetryAddr == "" {
			reg = nil
		}
		figures.AttachProvenance(opts, why.Sample, reg)
	}
	return figures.InspectBundle(opts, exp.Options{Workers: d.Parallel}, bundle, w)
}
