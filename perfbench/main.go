// Command perfbench is the end-to-end benchmark of the Phastlane
// reproduction's headline pipeline. It calls the layers' public functions
// directly (coherence.GenerateTrace, figures.NetConfig.Build, sim.RunTrace,
// sim.RunRate) on inputs generated from the workload seed.
//
// A run repeats rounds of one workload until its time is up. Every round
// does the same fixed simulated work: it sets up (trace generation,
// network, pattern and observer construction), simulates, and digests the
// simulated outputs. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end medians over the rounds
// after a warm-up cycle.
// With -trace 1 the run alternates untraced and traced rounds; traced
// rounds wrap each network in a timing decorator and supply the per-layer
// metrics. A job that errors, hits the replay limit, leaves messages
// unresolved, or whose digest disagrees with another round's or with the
// pinned digest counts as failed; any failure makes the run exit 1.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload splash-replay -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"phastlane/internal/photonic"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
)

func main() {
	name := flag.String("workload", "", "workload: splash-replay, synthetic-sweep or observed-inspect")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long to keep starting rounds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	// One simulation worker; the second core is left to the GC.
	runtime.GOMAXPROCS(2)
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := measure(w, *seed, *seconds, *trace == 1, pins)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the run's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type roundMode int

const (
	untraced roundMode = iota
	traced
	// bare is observed-inspect's points with the observability stack
	// left off: the baseline of obs.overhead_x.
	bare
)

func (m roundMode) String() string {
	return [...]string{"untraced", "traced", "bare"}[m]
}

// round is what one round measured.
type round struct {
	setupS, wallS, cpuS, allocMB float64
	// simDigests and jobDigests hold each job's digest without and
	// with its observability outputs.
	simDigests, jobDigests []uint64
	results                []sim.Result
	failed                 int
	events                 int64
	// layers holds the per-layer metrics of a traced round.
	layers map[string]float64
}

// warmupCycles is how many cycles of rounds a run makes before the ones
// its medians cover. A fresh process pays page faults for its heap and
// starts on cold caches in its first round; warm-up rounds are checked
// like every other round but do not enter the metrics.
const warmupCycles = 1

// measure runs rounds of w until seconds have passed and summarises them.
func measure(w workload, seed int64, seconds float64, tracedRun bool, pins pinTable) (*result, error) {
	cycle := []roundMode{untraced}
	minCycles := 3
	if tracedRun {
		cycle = []roundMode{untraced, traced}
		if w.name == "observed-inspect" {
			cycle = append(cycle, bare)
		}
		minCycles = 2
	}
	byMode := map[roundMode][]*round{}
	start := time.Now()
	var lastCycle time.Duration
	for n := 0; ; n++ {
		elapsed := time.Since(start)
		if n >= warmupCycles+minCycles && (elapsed+lastCycle).Seconds() > seconds {
			break
		}
		c0 := time.Now()
		for _, mode := range cycle {
			r, err := runRound(w, seed, mode)
			if err != nil {
				return nil, err
			}
			byMode[mode] = append(byMode[mode], r)
			label := mode.String()
			if n < warmupCycles {
				label += " warm-up"
			}
			fmt.Printf("round %d %s: setup %.4fs wall %.4fs cpu %.4fs alloc %.1fMB\n", n, label, r.setupS, r.wallS, r.cpuS, r.allocMB)
		}
		lastCycle = time.Since(c0)
	}

	out := &result{Correct: true, Metrics: map[string]metricValue{}}
	// Every round simulates the same inputs, so its per-job digests must
	// agree with the first round's; bare rounds, which have no
	// observability outputs, must still simulate exactly the same.
	ref := byMode[untraced][0]
	digest := roundDigest(ref.jobDigests)
	for mode, rs := range byMode {
		for _, r := range rs {
			out.Attempted += len(r.jobDigests)
			out.Failed += r.failed
			for i := range r.jobDigests {
				if r.simDigests[i] != ref.simDigests[i] || (mode != bare && r.jobDigests[i] != ref.jobDigests[i]) {
					fmt.Fprintf(os.Stderr, "perfbench: %s job %d of a %s round digests differently from the first round\n", w.name, i, mode)
					out.Failed++
				}
			}
		}
	}
	if pin, ok := pins.pinned(w.name, seed); ok && pin != digest {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s, pinned %s\n", w.name, seed, digest, pin)
		out.Failed += len(ref.jobDigests)
	} else if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no pinned digest for %s seed %d on %s; checked rounds against each other only\n", w.name, seed, runtime.GOARCH)
	}
	out.Correct = out.Failed == 0
	fmt.Printf("digest %s seed %d %s\n", w.name, seed, digest)
	if speedup, power, ok := paperNumbers(w, ref.results); ok {
		fmt.Printf("paper %s seed %d: Optical4 geomean speedup %.4fx (paper %.1fx), power reduction %.2f%% (paper %.0f%%)\n",
			w.name, seed, speedup, paperSpeedup, power*100, paperPowerReduction*100)
	}

	col := func(mode roundMode, f func(*round) float64) float64 {
		var vs []float64
		for _, r := range byMode[mode][warmupCycles:] {
			vs = append(vs, f(r))
		}
		return median(vs)
	}
	if !tracedRun {
		vals := map[string]float64{
			"wall_s":   col(untraced, func(r *round) float64 { return r.wallS }),
			"setup_s":  col(untraced, func(r *round) float64 { return r.setupS }),
			"cpu_s":    col(untraced, func(r *round) float64 { return r.cpuS }),
			"alloc_mb": col(untraced, func(r *round) float64 { return r.allocMB }),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		fmt.Printf("rounds %d measured after %d warm-up\n", len(byMode[untraced])-warmupCycles, warmupCycles)
		return out, nil
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		name := m.name
		vals[name] = col(traced, func(r *round) float64 { return r.layers[name] })
	}
	plainWall := col(untraced, func(r *round) float64 { return r.wallS })
	vals["bench.trace_overhead_x"] = ratio(col(traced, func(r *round) float64 { return r.wallS }), plainWall)
	if rs := byMode[bare]; len(rs) > 0 {
		bareWall := col(bare, func(r *round) float64 { return r.wallS })
		vals["obs.overhead_x"] = ratio(plainWall, bareWall)
		vals["obs.events_per_ms"] = ratio(float64(ref.events), (plainWall-bareWall)*1e3)
	}
	if speedup, power, ok := paperNumbers(w, ref.results); ok {
		vals["paper.speedup_err_pct"] = 100 * math.Abs(speedup-paperSpeedup) / paperSpeedup
		vals["paper.power_err_pct"] = 100 * math.Abs(power-paperPowerReduction) / paperPowerReduction
	}
	for _, m := range perLayer {
		out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	fmt.Printf("rounds %d untraced, %d traced, %d bare, each after %d warm-up\n",
		len(byMode[untraced])-warmupCycles, len(byMode[traced])-warmupCycles, max(len(byMode[bare])-warmupCycles, 0), warmupCycles)
	return out, nil
}

// runRound sets up and simulates one round of w.
func runRound(w workload, seed int64, mode roundMode) (*round, error) {
	runtime.GC()
	alloc0 := heapAllocBytes()
	t0 := time.Now()
	b, err := w.setup(seed, mode == bare)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	r := &round{setupS: time.Since(t0).Seconds()}
	// Collect set-up garbage (the coherence generator's cache models)
	// now, so the simulation phase pays only for its own collections.
	runtime.GC()

	probes := make([]*probe, len(b.jobs))
	harnessNanos := make([]int64, len(b.jobs))
	gc0, mallocs0 := readGoMetrics()
	cpu0 := processCPU()
	t1 := time.Now()
	for i, j := range b.jobs {
		net := j.net
		if mode == traced {
			probes[i] = newProbe(net)
			net = probes[i]
		}
		tj := time.Now()
		res, err := j.run(net)
		harnessNanos[i] = time.Since(tj).Nanoseconds()
		if err == nil {
			err = j.finish()
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.label, err)
			r.failed++
		case j.tr != nil && res.Saturated:
			fmt.Fprintf(os.Stderr, "perfbench: %s: replay hit its cycle limit\n", j.label)
			r.failed++
		case res.Unresolved > 0:
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d messages unresolved\n", j.label, res.Unresolved)
			r.failed++
		}
		sd := simDigest(j.label, res)
		r.simDigests = append(r.simDigests, sd)
		r.jobDigests = append(r.jobDigests, jobDigest(j, sd))
		r.results = append(r.results, res)
		if j.tf != nil {
			r.events += j.tf.Events()
		}
	}
	r.wallS = time.Since(t1).Seconds()
	r.cpuS = processCPU() - cpu0
	gc1, mallocs1 := readGoMetrics()
	r.allocMB = float64(heapAllocBytes()-alloc0) / 1e6
	if mode == traced {
		r.layers = layerMetrics(b, probes, harnessNanos)
		r.layers["coherence.gen_share"] = ratio(float64(b.genNanos)/1e9, r.setupS+r.wallS)
		var steps int64
		for _, p := range probes {
			steps += p.steps
		}
		r.layers["obs.events_per_cycle"] = ratio(float64(r.events), float64(steps))
		r.layers["go.gc_cpu_frac"] = ratio(gc1-gc0, r.cpuS)
		r.layers["go.allocs_per_cycle"] = ratio(float64(mallocs1-mallocs0), float64(steps))
	}
	return r, nil
}

// layerMetrics derives a traced round's per-layer metrics from its set-up
// and the probes around its networks.
func layerMetrics(b *batch, probes []*probe, harnessNanos []int64) map[string]float64 {
	m := map[string]float64{}
	m["coherence.msgs_per_s"] = ratio(float64(b.genMsgs), float64(b.genNanos)/1e9)
	m["coherence.alloc_mb"] = b.genAllocMB

	type kind struct {
		stepNanos, steps, drops, delivered, activeSum, activeN int64
		phaseNanos                                             map[string]int64
		phaseTotal                                             int64
	}
	kinds := map[bool]*kind{true: {phaseNanos: map[string]int64{}}, false: {phaseNanos: map[string]int64{}}}
	var selfNanos, nicFree, injects, steps int64
	for i, p := range probes {
		selfNanos += harnessNanos[i] - p.stepNanos - p.injectNanos
		nicFree += p.nicFree
		injects += p.injects
		steps += p.steps
		k := kinds[b.jobs[i].optical]
		k.stepNanos += p.stepNanos
		k.steps += p.steps
		k.drops += p.Run().Drops
		k.delivered += p.delivered
		k.activeSum += p.activeSum
		k.activeN += p.activeN
		if p.phases != nil {
			snap := p.phases.Snapshot()
			k.phaseTotal += snap.TotalNanos
			for _, st := range snap.Stats {
				k.phaseNanos[st.Phase] += st.Nanos
			}
		}
	}
	m["sim.self_s"] = float64(selfNanos) / 1e9
	m["sim.nicfree_calls_per_cycle"] = ratio(float64(nicFree), float64(steps))
	m["sim.inject_calls"] = float64(injects)

	opt, ele := kinds[true], kinds[false]
	m["core.step_s"] = float64(opt.stepNanos) / 1e9
	m["core.ns_per_cycle"] = ratio(float64(opt.stepNanos), float64(opt.steps))
	m["core.drops_per_delivery"] = ratio(float64(opt.drops), float64(opt.delivered))
	m["core.phase.launch_share"] = ratio(float64(opt.phaseNanos["launch"]), float64(opt.phaseTotal))
	m["core.phase.walk_share"] = ratio(float64(opt.phaseNanos["walk"]), float64(opt.phaseTotal))
	m["core.phase.dropwindow_share"] = ratio(float64(opt.phaseNanos["drop-window"]), float64(opt.phaseTotal))
	m["electrical.step_s"] = float64(ele.stepNanos) / 1e9
	m["electrical.ns_per_cycle"] = ratio(float64(ele.stepNanos), float64(ele.steps))
	m["electrical.phase.vcalloc_share"] = ratio(float64(ele.phaseNanos["vcalloc"]), float64(ele.phaseTotal))
	m["electrical.phase.switch_share"] = ratio(float64(ele.phaseNanos["switch"]), float64(ele.phaseTotal))
	m["electrical.active_routers_mean"] = ratio(float64(ele.activeSum), float64(ele.activeN))
	return m
}

// paperNumbers computes the headline comparison from a splash-replay
// round: Optical4's geometric-mean speedup (mean packet latency of
// Electrical3 over Optical4, as in Fig. 10) and its mean power reduction
// against Electrical3 (Fig. 11). ok is false for other workloads.
func paperNumbers(w workload, results []sim.Result) (speedup, powerReduction float64, ok bool) {
	if w.name != "splash-replay" {
		return 0, 0, false
	}
	per := len(replayConfigs)
	var speedups []float64
	for i := 0; i+per <= len(results); i += per {
		e3, o4 := &results[i].Run, &results[i+1].Run
		speedups = append(speedups, e3.Latency.Mean()/o4.Latency.Mean())
		powerReduction += 1 - o4.PowerW(photonic.DefaultClockGHz)/e3.PowerW(photonic.DefaultClockGHz)
	}
	n := float64(len(speedups))
	return stats.GeoMean(speedups), powerReduction / n, true
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// readGoMetrics returns the runtime's estimate of GC CPU seconds (updated
// at the end of each GC cycle) and the cumulative heap object count.
func readGoMetrics() (gcCPU float64, mallocs uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}
