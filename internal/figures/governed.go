package figures

import (
	"fmt"

	"phastlane/internal/cc"
	"phastlane/internal/exp"
	"phastlane/internal/fault"
	"phastlane/internal/mesh"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/traffic"
)

// Governed is the closed-loop congestion-control study: it drives both
// simulators through the saturation knee three ways — ungoverned, a
// static backoff (fixed conservative injection cap), and the cc package's
// delay-gradient AIMD governor — and reports delivered throughput, tail
// latency, and Jain's fairness at each offered load. The question it
// answers is whether sensing congestion beats provisioning for it: the
// static cap is the safe rate an operator would pick offline, AIMD finds
// the operating point online from per-message latency and nack signals.

// Governed mode names.
const (
	// ModeNone runs the network bare: injection is limited only by NIC
	// backpressure, so offered loads past the knee fall off the
	// saturation cliff.
	ModeNone = "none"
	// ModeStatic is the static backoff baseline: every sender is paced
	// by a fixed token bucket at GovernedOpts.StaticRate, regardless of
	// what the network reports back.
	ModeStatic = "static"
	// ModeAIMD is the closed loop: cc.DefaultConfig delay-gradient AIMD
	// senders.
	ModeAIMD = "aimd"
)

// GovernedOpts controls the sweep.
type GovernedOpts struct {
	// Configs selects the network variants (default Optical4 and
	// Electrical3, the same pair as the degradation study).
	Configs []string
	// Patterns selects the traffic patterns by name. The default runs
	// Uniform — where the cliff shows as a latency-tail explosion — and
	// BitComp, the adversarial permutation where the optical retry
	// churn produces genuine congestion collapse (delivered throughput
	// falls as offered load rises), the regime the governor exists for.
	Patterns []string
	// Rates is the offered-load grid; the default spans the healthy
	// region through the cliff (8x8 uniform knee ~0.45): 0.30, 0.40,
	// 0.50, 0.60, 0.70.
	Rates []float64
	// StaticRate is the fixed cap of the static-backoff baseline
	// (default 0.30 — the conservative below-knee rate an operator
	// would provision without feedback).
	StaticRate float64
	// Warmup and Measure cycles per point; zero uses 300 and 2000.
	Warmup, Measure int
	Seed            int64
	// Workers sizes the pool the points fan out over; values below 1
	// use one worker per core. Results are identical for any count.
	Workers int
	// Progress, when non-nil, receives (completed, total) point counts.
	Progress func(done, total int)
}

// GovernedPoint is one (config, pattern, mode, rate) outcome.
type GovernedPoint struct {
	// Config is the network variant ("Optical4" or "Electrical3").
	Config string `json:"config"`
	// Pattern is the traffic pattern name.
	Pattern string `json:"pattern"`
	// Mode is the sender discipline: "none", "static", or "aimd".
	Mode string `json:"mode"`
	// Rate is the offered load (packets/node/cycle).
	Rate float64 `json:"rate"`
	// Throughput is delivered packets/node/cycle.
	Throughput float64 `json:"throughput"`
	// AvgLatency and P99 are delivered-packet latency in cycles.
	AvgLatency float64 `json:"avg_latency"`
	P99        float64 `json:"p99"`
	// Fairness is Jain's index over per-sender delivered counts (1 =
	// perfectly fair).
	Fairness float64 `json:"fairness"`
	// CCRate is the governor's mean admitted rate at run end (governed
	// modes only).
	CCRate float64 `json:"cc_rate,omitempty"`
	// Paced counts injections the governor declined.
	Paced int64 `json:"paced"`
	// Delivered, Retries and Lost summarise the delivery layer.
	Delivered int64 `json:"delivered"`
	Retries   int64 `json:"retries"`
	Lost      int64 `json:"lost"`
	// Saturated reports the harness's overload verdict.
	Saturated bool `json:"saturated"`
}

const defaultStaticRate = 0.30

// staticGovernor builds the static-backoff discipline: the cc machinery
// with a degenerate tuning — InitRate == MinRate == MaxRate == the cap —
// so both governed modes pay the identical token-bucket admission path
// and differ only in adaptation.
func staticGovernor(rate float64, nodes int, seed int64) *cc.Governor {
	cfg := cc.DefaultConfig()
	cfg.InitRate, cfg.MinRate, cfg.MaxRate = rate, rate, rate
	cfg.Seed = seed
	return cc.New(cfg, nodes)
}

// JainFairness computes Jain's index over per-sender delivered counts:
// (sum x)^2 / (n * sum x^2), which is 1 when every sender got the same
// share and 1/n when one sender got everything. Senders that delivered
// nothing count; an all-zero population returns 0.
func JainFairness(delivered []int64) float64 {
	var sum, sumSq float64
	for _, d := range delivered {
		x := float64(d)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(delivered)) * sumSq)
}

// Validate reports an unknown network variant or traffic pattern name,
// so callers can reject bad options before Governed fans out its points.
func (o GovernedOpts) Validate() error {
	for _, c := range o.Configs {
		if c != "Optical4" && c != "Electrical3" {
			return fmt.Errorf("unknown governed config %q (want Optical4 or Electrical3)", c)
		}
	}
	for _, p := range o.Patterns {
		if _, err := PatternByName(p, 64, 0); err != nil {
			return err
		}
	}
	return nil
}

// Governed runs the sweep and returns all points in a stable (config,
// pattern, mode, rate) order. Every point builds a fresh network and a
// fresh governor, so two runs with the same options are bit-identical
// regardless of worker count. It panics on options Validate rejects.
func Governed(opts GovernedOpts) []GovernedPoint {
	if err := opts.Validate(); err != nil {
		panic("figures: " + err.Error())
	}
	if len(opts.Configs) == 0 {
		opts.Configs = []string{"Optical4", "Electrical3"}
	}
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"Uniform", "BitComp"}
	}
	if len(opts.Rates) == 0 {
		opts.Rates = []float64{0.30, 0.40, 0.50, 0.60, 0.70}
	}
	if opts.StaticRate == 0 {
		opts.StaticRate = defaultStaticRate
	}
	if opts.Warmup == 0 {
		opts.Warmup = 300
	}
	if opts.Measure == 0 {
		opts.Measure = 2000
	}
	type job struct {
		config  string
		pattern string
		mode    string
		rate    float64
	}
	var jobs []job
	for _, config := range opts.Configs {
		for _, pattern := range opts.Patterns {
			for _, mode := range []string{ModeNone, ModeStatic, ModeAIMD} {
				for _, rate := range opts.Rates {
					jobs = append(jobs, job{config, pattern, mode, rate})
				}
			}
		}
	}
	pts := exp.Run(jobs, func(ji int, j job) GovernedPoint {
		net := degradationNet(j.config, nil, opts.Seed+7)
		var gov *cc.Governor
		switch j.mode {
		case ModeStatic:
			gov = staticGovernor(opts.StaticRate, net.Nodes(), exp.DeriveSeed(opts.Seed, uint64(ji)))
		case ModeAIMD:
			cfg := cc.DefaultConfig()
			cfg.Seed = exp.DeriveSeed(opts.Seed, uint64(ji))
			gov = cc.New(cfg, net.Nodes())
		}
		// Uniform is stateful: each point gets its own derived seed.
		pattern, _ := PatternByName(j.pattern, net.Nodes(), exp.DeriveSeed(opts.Seed, uint64(ji)*64+32))
		r := sim.RunRate(net, sim.RateConfig{
			Pattern: pattern,
			Rate:    j.rate,
			Warmup:  opts.Warmup, Measure: opts.Measure,
			Seed: opts.Seed,
			CC:   gov,
		})
		pt := GovernedPoint{
			Config: j.config, Pattern: j.pattern, Mode: j.mode, Rate: j.rate,
			Throughput: r.Run.ThroughputPerNode(net.Nodes()),
			AvgLatency: r.Run.Latency.Mean(),
			P99:        r.Run.Latency.Percentile(99),
			Fairness:   JainFairness(r.DeliveredBySender),
			Paced:      r.Paced,
			Delivered:  r.Run.Delivered,
			Retries:    r.Run.Retries,
			Lost:       r.Lost,
			Saturated:  r.Saturated,
		}
		if gov != nil {
			pt.CCRate = gov.MeanRate()
		}
		return pt
	}, exp.Options{Workers: opts.Workers, Progress: opts.Progress})
	return pts
}

// GovernedTable renders the sweep in long form, one row per point.
func GovernedTable(pts []GovernedPoint) *stats.Table {
	t := &stats.Table{
		Title: "Governed: sender discipline vs the saturation cliff",
		Columns: []string{"config", "pattern", "mode", "rate", "throughput", "latency",
			"p99", "fairness", "cc_rate", "paced", "lost", "sat"},
	}
	for _, p := range pts {
		sat := ""
		if p.Saturated {
			sat = "SAT"
		}
		t.AddRow(p.Config, p.Pattern, p.Mode, stats.F(p.Rate), stats.F(p.Throughput),
			stats.F(p.AvgLatency), stats.F(p.P99), stats.F(p.Fairness),
			stats.F(p.CCRate), fmt.Sprint(p.Paced), fmt.Sprint(p.Lost), sat)
	}
	return t
}

// GovernedPlot renders one (config, pattern) slice's delivered-throughput
// curves, one series per sender discipline.
func GovernedPlot(config, pattern string, pts []GovernedPoint) *stats.Plot {
	return governedSeries(config, pattern, pts,
		fmt.Sprintf("Governed (%s, %s): delivered throughput vs offered load", config, pattern),
		"pkts/node/cycle",
		func(p GovernedPoint) float64 { return p.Throughput })
}

// GovernedTailPlot renders one (config, pattern) slice's p99 latency curves.
func GovernedTailPlot(config, pattern string, pts []GovernedPoint) *stats.Plot {
	return governedSeries(config, pattern, pts,
		fmt.Sprintf("Governed (%s, %s): p99 latency vs offered load", config, pattern),
		"cycles",
		func(p GovernedPoint) float64 { return p.P99 })
}

func governedSeries(config, pattern string, pts []GovernedPoint, title, ylabel string, y func(GovernedPoint) float64) *stats.Plot {
	p := &stats.Plot{Title: title, XLabel: "offered rate", YLabel: ylabel}
	series := map[string]*stats.Series{}
	var order []string
	for _, pt := range pts {
		if pt.Config != config || pt.Pattern != pattern {
			continue
		}
		s, ok := series[pt.Mode]
		if !ok {
			s = &stats.Series{Label: pt.Mode}
			series[pt.Mode] = s
			order = append(order, pt.Mode)
		}
		s.Append(pt.Rate, y(pt))
	}
	for _, name := range order {
		p.Series = append(p.Series, *series[name])
	}
	return p
}

// RecoveryOpts controls the fault back-off/re-convergence study.
type RecoveryOpts struct {
	// Rate is the offered load (default 0.25 — past the healthy knee,
	// so the governor is actively governing when the links die).
	Rate float64
	// DeadLinks is how many vertical-bisection links die mid-run
	// (default 6 of the 8x8 mesh's 8).
	DeadLinks int
	// Warmup and Measure cycles (defaults 300 and 6000; the fault
	// window and heal need room inside the measure phase).
	Warmup, Measure int
	Seed            int64
}

// RecoveryResult is the study outcome: the governor's rate history plus
// phase means around the fault window.
type RecoveryResult struct {
	// From and Until are the fault window boundaries in run cycles.
	From  int64 `json:"from"`
	Until int64 `json:"until"`
	// Samples is the governor's population history (cc.RateSample).
	Samples []cc.RateSample `json:"samples"`
	// PreRate, FaultRate and PostRate are the mean admitted rates over
	// the three phases: before the links die, while they are dead, and
	// after they heal (excluding a settle margin after each boundary).
	PreRate   float64 `json:"pre_rate"`
	FaultRate float64 `json:"fault_rate"`
	PostRate  float64 `json:"post_rate"`
	// Delivered and Lost summarise the run.
	Delivered int64 `json:"delivered"`
	Lost      int64 `json:"lost"`
}

// GovernedRecovery runs the AIMD governor on the optical mesh through a
// mid-run dead-link fault window — DeadLinks vertical bisection links go
// down together, then heal — and returns the rate history: the
// population backs off while the fabric is degraded and re-converges
// after it heals. Deterministic for fixed opts.
func GovernedRecovery(opts RecoveryOpts) RecoveryResult {
	if opts.Rate == 0 {
		opts.Rate = 0.25
	}
	if opts.DeadLinks == 0 {
		opts.DeadLinks = 6
	}
	if opts.Warmup == 0 {
		opts.Warmup = 300
	}
	if opts.Measure == 0 {
		opts.Measure = 6000
	}
	total := int64(opts.Warmup + opts.Measure)
	from := int64(opts.Warmup) + total/3
	until := int64(opts.Warmup) + 2*total/3
	plan := &fault.Plan{}
	for i := 0; i < opts.DeadLinks && i < 8; i++ {
		// East links out of column 3: the 8x8 mesh's vertical bisection.
		plan.Faults = append(plan.Faults, fault.Fault{
			Kind: fault.DeadLink,
			Node: mesh.NodeID(i*8 + 3),
			Dir:  mesh.East,
			From: from, Until: until,
		})
	}
	net := degradationNet("Optical4", plan, opts.Seed+7)
	ccCfg := cc.DefaultConfig()
	ccCfg.Seed = exp.DeriveSeed(opts.Seed, 1)
	ccCfg.HistoryEvery = 64
	gov := cc.New(ccCfg, net.Nodes())
	r := sim.RunRate(net, sim.RateConfig{
		Pattern: traffic.UniformRandom(net.Nodes(), exp.DeriveSeed(opts.Seed, 2)),
		Rate:    opts.Rate,
		Warmup:  opts.Warmup, Measure: opts.Measure,
		Seed: opts.Seed,
		CC:   gov,
	})
	res := RecoveryResult{
		From: from, Until: until,
		Samples:   append([]cc.RateSample(nil), gov.History()...),
		Delivered: r.Run.Delivered,
		Lost:      r.Lost,
	}
	// Phase means skip a settle margin after each boundary so the
	// controller's reaction time does not blur the phases together.
	const settle = 512
	var preSum, faultSum, postSum float64
	var preN, faultN, postN int
	for _, s := range res.Samples {
		switch {
		case s.Cycle >= int64(opts.Warmup) && s.Cycle < from:
			preSum += s.MeanRate
			preN++
		case s.Cycle >= from+settle && s.Cycle < until:
			faultSum += s.MeanRate
			faultN++
		case s.Cycle >= until+settle:
			postSum += s.MeanRate
			postN++
		}
	}
	if preN > 0 {
		res.PreRate = preSum / float64(preN)
	}
	if faultN > 0 {
		res.FaultRate = faultSum / float64(faultN)
	}
	if postN > 0 {
		res.PostRate = postSum / float64(postN)
	}
	return res
}

// RecoveryPlot renders the governor's mean admitted rate over the run,
// with the fault window called out in the title.
func RecoveryPlot(r RecoveryResult) *stats.Plot {
	p := &stats.Plot{
		Title: fmt.Sprintf("Recovery: mean admitted rate (links dead %d-%d)",
			r.From, r.Until),
		XLabel: "cycle", YLabel: "rate",
	}
	s := stats.Series{Label: "aimd"}
	for _, sm := range r.Samples {
		s.Append(float64(sm.Cycle), sm.MeanRate)
	}
	p.Series = append(p.Series, s)
	return p
}
