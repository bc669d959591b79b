package sim_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"phastlane/internal/cc"
	"phastlane/internal/core"
	"phastlane/internal/electrical"
	"phastlane/internal/fault"
	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/packet"
	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
	"phastlane/internal/traffic"
)

// resultDigest renders every field of a harness Result in a canonical
// text form, except Unresolved, which the golden table pins on its own
// column so a change to outstanding-message reporting shows up by name.
func resultDigest(r sim.Result) string {
	var b strings.Builder
	f := func(v float64) uint64 { return math.Float64bits(v) }
	lat := func(name string, l *stats.Latency) {
		fmt.Fprintf(&b, "%s n=%d mean=%x p50=%x p99=%x max=%x\n", name,
			l.Count(), f(l.Mean()), f(l.Percentile(50)), f(l.Percentile(99)), f(l.Max()))
	}
	run := r.Run
	fmt.Fprintf(&b, "cycles=%d injected=%d delivered=%d drops=%d retries=%d lost=%d unreachable=%d corrupt=%d links=%d buffered=%d\n",
		run.Cycles, run.Injected, run.Delivered, run.Drops, run.Retries, run.Lost,
		run.Unreachable, run.Corrupt, run.LinkTraversals, run.BufferedPackets)
	fmt.Fprintf(&b, "energy=%x/%x/%x\n", f(run.ElectricalEnergyPJ), f(run.OpticalEnergyPJ), f(run.LeakagePJ))
	lat("latency", &run.Latency)
	fmt.Fprintf(&b, "offered=%d rate=%x makespan=%d saturated=%t lost=%d paced=%d\n",
		r.Offered, f(r.OfferedRate), r.Makespan, r.Saturated, r.Lost, r.Paced)
	fmt.Fprintf(&b, "bysender=%v nil=%t\n", r.DeliveredBySender, r.DeliveredBySender == nil)
	ops := make([]packet.Op, 0, len(r.LatencyByOp))
	for op := range r.LatencyByOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	fmt.Fprintf(&b, "ops nil=%t\n", r.LatencyByOp == nil)
	for _, op := range ops {
		lat(op.String(), r.LatencyByOp[op])
	}
	return b.String()
}

func hashDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenFaults is a survivable fault mix: dead links force detours, a
// stuck router strands the traffic through it until the loss timeout,
// and control corruption keeps the retry path busy.
func goldenFaults(seed int64) *fault.Plan {
	return fault.RandomPlan(seed, 8, 8, fault.RandomSpec{
		DeadLinks: 4, StuckRouters: 1, SlotFaults: 2, CorruptRate: 0.005,
	})
}

// goldenNet builds a fresh Optical4 or Electrical3 network, optionally
// under goldenFaults with retry and loss-timeout limits armed.
func goldenNet(optical, faulty bool) sim.Network {
	if optical {
		cfg := core.DefaultConfig()
		cfg.MaxHops = 4
		cfg.Seed = 9
		if faulty {
			cfg.Faults = goldenFaults(21)
			cfg.RetryLimit = 8
			cfg.LossTimeout = 400
		}
		return core.New(cfg)
	}
	cfg := electrical.DefaultConfig()
	cfg.Seed = 9
	if faulty {
		cfg.Faults = goldenFaults(21)
		cfg.LossTimeout = 400
	}
	return electrical.New(cfg)
}

// goldenObservers is the full observer set: collector with sampler,
// telemetry with every-cycle phase sampling and a recording watchdog,
// and a provenance tracker.
type goldenObservers struct {
	obs  *obs.Collector
	tel  *telemetry.Run
	prov *provenance.Tracker
}

func newGoldenObservers() *goldenObservers {
	return &goldenObservers{
		obs:  &obs.Collector{Metrics: obs.NewMetrics(8, 8), Sampler: obs.NewSampler(64, 200)},
		tel:  telemetry.NewRun(telemetry.Options{SampleEvery: 1, FlushEvery: 97}),
		prov: provenance.New(provenance.Config{K: 16, Seed: 5, Width: 8, Height: 8}),
	}
}

// harnessGolden maps each case to its digest and Unresolved count. Rows
// with identical digests are the same run observed and unobserved, or a
// governor that never paced below the knee.
var harnessGolden = map[string]struct {
	digest     string
	unresolved int64
}{
	"trace/Ocean/optical/faulty=false/observed=false":    {"12b8fa48f4e36649", 0},
	"trace/Ocean/optical/faulty=false/observed=true":     {"12b8fa48f4e36649", 0},
	"trace/Ocean/optical/faulty=true/observed=false":     {"5b7b3653576127a6", 0},
	"trace/Ocean/optical/faulty=true/observed=true":      {"5b7b3653576127a6", 0},
	"trace/Ocean/electrical/faulty=false/observed=false": {"4c3de7c1c08e40ed", 0},
	"trace/Ocean/electrical/faulty=false/observed=true":  {"4c3de7c1c08e40ed", 0},
	"trace/Ocean/electrical/faulty=true/observed=false":  {"dc35b947014c122f", 0},
	"trace/Ocean/electrical/faulty=true/observed=true":   {"dc35b947014c122f", 0},
	"trace/FFT/optical/faulty=false/observed=false":      {"558f29ca99a6d9af", 0},
	"trace/FFT/optical/faulty=false/observed=true":       {"558f29ca99a6d9af", 0},
	"trace/FFT/optical/faulty=true/observed=false":       {"766851e1794d64ab", 0},
	"trace/FFT/optical/faulty=true/observed=true":        {"766851e1794d64ab", 0},
	"trace/FFT/electrical/faulty=false/observed=false":   {"5f35be929bf3aacd", 0},
	"trace/FFT/electrical/faulty=false/observed=true":    {"5f35be929bf3aacd", 0},
	"trace/FFT/electrical/faulty=true/observed=false":    {"f7f4c1f24dbf41f3", 0},
	"trace/FFT/electrical/faulty=true/observed=true":     {"f7f4c1f24dbf41f3", 0},
	"trace/Ocean/optical/limit/observed=false":           {"a7a01969b715c014", 0},
	"trace/Ocean/optical/limit/observed=true":            {"a7a01969b715c014", 0},
	"trace/Ocean/electrical/limit/observed=false":        {"f9519f905221a7d0", 22},
	"trace/Ocean/electrical/limit/observed=true":         {"f9519f905221a7d0", 22},
	"rate/optical/0.05/clean":                            {"97fede78d322e0b1", 0},
	"rate/optical/0.05/lossy":                            {"cf0aad0f48d5edea", 5},
	"rate/optical/0.05/governed":                         {"97fede78d322e0b1", 0},
	"rate/optical/0.05/observed":                         {"97fede78d322e0b1", 0},
	"rate/optical/0.60/clean":                            {"ceae19ff154552e3", 0},
	"rate/optical/0.60/lossy":                            {"a1196a30bf610a6d", 73},
	"rate/optical/0.60/governed":                         {"aa85b6e5b7004c10", 0},
	"rate/optical/0.60/observed":                         {"ceae19ff154552e3", 0},
	"rate/electrical/0.05/clean":                         {"2551f79e1e24f848", 0},
	"rate/electrical/0.05/lossy":                         {"419edc8a3a20d71b", 0},
	"rate/electrical/0.05/governed":                      {"2551f79e1e24f848", 0},
	"rate/electrical/0.05/observed":                      {"2551f79e1e24f848", 0},
	"rate/electrical/0.60/clean":                         {"60a323e57cb4b3e8", 0},
	"rate/electrical/0.60/lossy":                         {"f94498c090dd2572", 89},
	"rate/electrical/0.60/governed":                      {"d2efe44e42af71d1", 0},
	"rate/electrical/0.60/observed":                      {"60a323e57cb4b3e8", 0},
}

type goldenCase struct {
	name string
	// observed attaches goldenObservers and asserts no watchdog trips.
	observed bool
	run      func(o *goldenObservers) sim.Result
}

func goldenTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, b := range []string{"Ocean", "FFT"} {
		tr, err := figures.TraceFor(b, 250, 13)
		if err != nil {
			t.Fatal(err)
		}
		out[b] = tr
	}
	return out
}

func goldenCases(t *testing.T) []goldenCase {
	traces := goldenTraces(t)
	var cases []goldenCase
	netName := map[bool]string{true: "optical", false: "electrical"}
	for _, bench := range []string{"Ocean", "FFT"} {
		for _, optical := range []bool{true, false} {
			for _, faulty := range []bool{false, true} {
				for _, observed := range []bool{false, true} {
					name := fmt.Sprintf("trace/%s/%s/faulty=%t/observed=%t", bench, netName[optical], faulty, observed)
					cases = append(cases, goldenCase{name: name, observed: observed,
						run: func(o *goldenObservers) sim.Result {
							cfg := sim.ReplayConfig{Limit: 3000}
							if o != nil {
								cfg.Obs, cfg.Telemetry, cfg.Prov = o.obs, o.tel, o.prov
							}
							r, err := sim.RunTrace(goldenNet(optical, faulty), traces[bench], cfg)
							if err != nil {
								t.Fatal(err)
							}
							return r
						}})
				}
			}
		}
	}
	// Limit-aborted replays: the cycle cap cuts the replay with messages
	// still in flight.
	for _, optical := range []bool{true, false} {
		for _, observed := range []bool{false, true} {
			cases = append(cases, goldenCase{
				name:     fmt.Sprintf("trace/Ocean/%s/limit/observed=%t", netName[optical], observed),
				observed: observed,
				run: func(o *goldenObservers) sim.Result {
					cfg := sim.ReplayConfig{Limit: 120}
					if o != nil {
						cfg.Obs, cfg.Telemetry, cfg.Prov = o.obs, o.tel, o.prov
					}
					r, err := sim.RunTrace(goldenNet(optical, false), traces["Ocean"], cfg)
					if err != nil {
						t.Fatal(err)
					}
					return r
				}})
		}
	}
	// Synthetic runs below (0.05) and past (0.60) the uniform knee.
	for _, optical := range []bool{true, false} {
		for _, rate := range []float64{0.05, 0.60} {
			for _, mode := range []string{"clean", "lossy", "governed", "observed"} {
				cases = append(cases, goldenCase{
					name:     fmt.Sprintf("rate/%s/%.2f/%s", netName[optical], rate, mode),
					observed: mode == "observed",
					run: func(o *goldenObservers) sim.Result {
						cfg := sim.RateConfig{
							Pattern: traffic.UniformRandom(64, 3),
							Rate:    rate, Warmup: 150, Measure: 500, DrainLimit: 300, Seed: 4,
						}
						switch mode {
						case "governed":
							cfg.CC = cc.New(cc.DefaultConfig(), 64)
						case "observed":
							cfg.Obs, cfg.Telemetry, cfg.Prov = o.obs, o.tel, o.prov
						}
						return sim.RunRate(goldenNet(optical, mode == "lossy"), cfg)
					}})
			}
		}
	}
	return cases
}

// TestHarnessGolden pins every Result field of both harnesses across
// clean, faulty, governed, limit-aborted and fully observed runs on both
// simulators, so a refactor of the harness loops must reproduce each run
// exactly. The observed runs additionally must trip no telemetry
// watchdog: conservation and the networks' own invariants hold at every
// flush.
func TestHarnessGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		var o *goldenObservers
		if tc.observed {
			o = newGoldenObservers()
		}
		r := tc.run(o)
		got := hashDigest(resultDigest(r))
		w, ok := harnessGolden[tc.name]
		if !ok || got != w.digest || r.Unresolved != w.unresolved {
			t.Errorf("%s: digest %s unresolved %d, want %s %d\n%s",
				tc.name, got, r.Unresolved, w.digest, w.unresolved, resultDigest(r))
		}
		if o != nil {
			if trips := o.tel.Watchdog.Trips(); len(trips) != 0 {
				t.Errorf("%s: watchdog tripped: %v", tc.name, trips)
			}
		}
	}
}
