package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"phastlane/internal/coherence"
	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
)

// Workload sizes. Every round of a workload simulates exactly this much;
// they are sized so one round takes about two seconds of host time on a
// 2 vCPU Xeon, which leaves several rounds per measured run.
const (
	// replayMessages is the per-benchmark SPLASH trace length (the full
	// traces are 26-28k messages).
	replayMessages = 1500

	// Synthetic sweep: 0.05 is below every 8x8 knee; 0.25 is past the
	// Transpose knee (0.15-0.20) of both networks but below Uniform's.
	sweepLow, sweepHigh    = 0.05, 0.25
	sweepWarmup            = 200
	sweepMeasure           = 600
	sweepDrainLimit        = 20_000
	observedWarmup         = 300
	observedOpticalMeasure = 2500
	observedElecMeasure    = 500
)

// replayConfigs are the networks every SPLASH trace is replayed on: the
// electrical baseline, the paper's four-hop network, and its 64-buffer
// variant that suppresses Ocean's drop storm. paperNumbers relies on the
// first two being Electrical3 and Optical4.
var replayConfigs = []figures.NetConfig{figures.Electrical3, figures.Optical4, figures.Optical4B64}

// job is one harness call of a round: a trace replay when tr is set,
// otherwise a synthetic RunRate point.
type job struct {
	label   string
	optical bool
	net     sim.Network
	tr      *trace.Trace
	rate    sim.RateConfig
	// Observed jobs carry the full observability stack, all set or all
	// nil; rate references them too.
	tf   *obs.TraceFile
	prov *provenance.Tracker
	tel  *telemetry.Run
}

// run makes the harness call on net: the job's network, or a decorator
// around it.
func (j *job) run(net sim.Network) (sim.Result, error) {
	if j.tr != nil {
		return sim.RunTrace(net, j.tr, sim.ReplayConfig{})
	}
	return sim.RunRate(net, j.rate), nil
}

// finish completes an observed job's outputs — the tail-blame report and
// the closed Perfetto trace — and checks its watchdog. It is part of the
// observed workload's cost and a no-op for other jobs.
func (j *job) finish() error {
	if j.tf == nil {
		return nil
	}
	if r := j.prov.Report(j.label); r.Completed == 0 {
		return fmt.Errorf("%s: provenance report saw no completed packet", j.label)
	}
	if err := j.tf.Close(); err != nil {
		return fmt.Errorf("%s: close trace: %w", j.label, err)
	}
	if trips := j.tel.Watchdog.Trips(); len(trips) > 0 {
		return fmt.Errorf("%s: watchdog tripped: %v", j.label, trips[0])
	}
	return nil
}

// batch is the fixed simulated work of one round plus what set-up
// measured on the way.
type batch struct {
	jobs []*job
	// Trace generation (splash-replay only).
	genNanos   int64
	genMsgs    int64
	genAllocMB float64
}

// workload names one benchmark workload and builds its rounds.
type workload struct {
	name string
	// setup builds one round's inputs from the workload seed. bare
	// strips the observability stack (observed-inspect's baseline).
	setup func(seed int64, bare bool) (*batch, error)
}

var workloads = []workload{
	{name: "splash-replay", setup: setupSplash},
	{name: "synthetic-sweep", setup: setupSweep},
	{name: "observed-inspect", setup: setupObserved},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent stream seed from the workload seed
// (splitmix64 finaliser), so each generator sees unrelated randomness.
func subSeed(seed int64, k uint64) int64 {
	z := uint64(seed) + k*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// setupSplash generates the Ocean and FFT traces and builds a network per
// (trace, configuration) pair.
func setupSplash(seed int64, _ bool) (*batch, error) {
	b := &batch{}
	for i, name := range []string{"Ocean", "FFT"} {
		p, err := coherence.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		p.Messages = replayMessages
		before := heapAllocBytes()
		t0 := time.Now()
		tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), subSeed(seed, uint64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		b.genNanos += time.Since(t0).Nanoseconds()
		b.genAllocMB += float64(heapAllocBytes()-before) / 1e6
		b.genMsgs += int64(len(tr.Messages))
		for _, c := range replayConfigs {
			b.jobs = append(b.jobs, &job{
				label:   name + "/" + c.Name,
				optical: c.Optical,
				net:     c.Build(subSeed(seed, 10)),
				tr:      tr,
			})
		}
	}
	return b, nil
}

// setupSweep builds the Fig. 9-style points: Uniform and Transpose on
// Optical4 and Electrical3, each below every knee and past the Transpose
// knee.
func setupSweep(seed int64, _ bool) (*batch, error) {
	b := &batch{}
	for pi, pat := range []string{"Uniform", "Transpose"} {
		for _, c := range []figures.NetConfig{figures.Optical4, figures.Electrical3} {
			for ri, rate := range []float64{sweepLow, sweepHigh} {
				net := c.Build(subSeed(seed, 20))
				pattern, err := figures.PatternByName(pat, net.Nodes(), subSeed(seed, uint64(30+pi)))
				if err != nil {
					return nil, err
				}
				b.jobs = append(b.jobs, &job{
					label:   fmt.Sprintf("%s/%s@%.2f", pat, c.Name, rate),
					optical: c.Optical,
					net:     net,
					rate: sim.RateConfig{
						Pattern: pattern, Rate: rate,
						Warmup: sweepWarmup, Measure: sweepMeasure, DrainLimit: sweepDrainLimit,
						Seed: subSeed(seed, uint64(40+2*pi+ri)),
					},
				})
			}
		}
	}
	return b, nil
}

// observedPoints are the deep-dive points of observed-inspect: mostly
// Optical4, where observability costs the most relative to the kernel,
// plus one Electrical3 point.
var observedPoints = []struct {
	cfg     figures.NetConfig
	pattern string
	rate    float64
	measure int
}{
	{figures.Optical4, "Uniform", 0.20, observedOpticalMeasure},
	{figures.Optical4, "Transpose", 0.15, observedOpticalMeasure},
	{figures.Optical4, "BitComp", 0.10, observedOpticalMeasure},
	{figures.Electrical3, "Uniform", 0.10, observedElecMeasure},
}

// setupObserved builds the observed points with the whole observability
// stack: an obs.Collector (metrics, sampler, Perfetto trace to a
// discarding sink), a provenance.Tracker and a telemetry.Run with a flight
// recorder. bare leaves the stack off, for the overhead baseline.
func setupObserved(seed int64, bare bool) (*batch, error) {
	b := &batch{}
	for i, pt := range observedPoints {
		net := pt.cfg.Build(subSeed(seed, 50))
		pattern, err := figures.PatternByName(pt.pattern, net.Nodes(), subSeed(seed, uint64(60+i)))
		if err != nil {
			return nil, err
		}
		j := &job{
			label:   fmt.Sprintf("%s/%s@%.2f", pt.pattern, pt.cfg.Name, pt.rate),
			optical: pt.cfg.Optical,
			net:     net,
			rate: sim.RateConfig{
				Pattern: pattern, Rate: pt.rate,
				Warmup: observedWarmup, Measure: pt.measure, DrainLimit: sweepDrainLimit,
				Seed: subSeed(seed, uint64(70+i)),
			},
		}
		if !bare {
			const w, h = 8, 8
			j.tf = obs.NewTraceFile(io.Discard)
			j.tf.Process(i, j.label, w, h)
			j.prov = provenance.New(provenance.Config{Seed: j.rate.Seed, Width: w, Height: h})
			j.tel = telemetry.NewRun(telemetry.Options{Recorder: telemetry.NewRecorder(io.Discard)})
			j.rate.Obs = &obs.Collector{
				Metrics: obs.NewMetrics(w, h),
				Sampler: obs.NewSampler(w*h, 0),
				Trace:   j.tf.Tracer(i),
			}
			j.rate.Prov = j.prov
			j.rate.Telemetry = j.tel
		}
		b.jobs = append(b.jobs, j)
	}
	return b, nil
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
