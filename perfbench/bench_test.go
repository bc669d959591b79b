package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"

	"phastlane/internal/coherence"
	"phastlane/internal/figures"
	"phastlane/internal/obs"
	"phastlane/internal/sim"
	"phastlane/internal/telemetry"
	"phastlane/internal/traffic"
)

// TestProbeKeepsResult replays a short trace bare and through the probe
// on each network kind: the decorator must not change the sim.Result.
func TestProbeKeepsResult(t *testing.T) {
	p, err := coherence.BenchmarkByName("Ocean")
	if err != nil {
		t.Fatal(err)
	}
	p.Messages = 300
	tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range replayConfigs {
		want, err := sim.RunTrace(c.Build(9), tr, sim.ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pr := newProbe(c.Build(9))
		got, err := sim.RunTrace(pr, tr, sim.ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probed replay result differs from the bare one", c.Name)
		}
		if pr.steps != got.Run.Cycles || pr.injects != got.Run.Injected || pr.stepNanos <= 0 {
			t.Errorf("%s: probe counted %d steps, %d injects (%d ns); run had %d cycles, %d injected",
				c.Name, pr.steps, pr.injects, pr.stepNanos, got.Run.Cycles, got.Run.Injected)
		}
	}
}

// TestProbeForwardsCapabilities runs an observed point bare and through
// the probe: the event stream, phase profile and telemetry must reach the
// wrapped network exactly as they do without the probe.
func TestProbeForwardsCapabilities(t *testing.T) {
	for _, c := range []figures.NetConfig{figures.Optical4, figures.Electrical3} {
		run := func(wrap bool) (sim.Result, *obs.Metrics, *telemetry.Run, *probe) {
			net := c.Build(3)
			var pr *probe
			if wrap {
				pr = newProbe(net)
				net = pr
			}
			m := obs.NewMetrics(8, 8)
			tel := telemetry.NewRun(telemetry.Options{SampleEvery: 1, FlushEvery: 100, Recorder: telemetry.NewRecorder(io.Discard)})
			res := sim.RunRate(net, sim.RateConfig{
				Pattern: traffic.Transpose(64), Rate: 0.2, Warmup: 100, Measure: 300, Seed: 4,
				Obs: &obs.Collector{Metrics: m}, Telemetry: tel,
			})
			return res, m, tel, pr
		}
		want, wantM, wantTel, _ := run(false)
		got, gotM, gotTel, pr := run(true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probed result differs from the bare one", c.Name)
		}
		if !gotM.Equal(wantM) || gotM.Total(obs.KindEject) == 0 {
			t.Errorf("%s: event stream not forwarded through the probe", c.Name)
		}
		if pr.phases != gotTel.Phases || gotTel.Phases.Snapshot().SampledCycles != wantTel.Phases.Snapshot().SampledCycles {
			t.Errorf("%s: telemetry phase profile not forwarded through the probe", c.Name)
		}
		if len(gotTel.Watchdog.Trips()) != 0 {
			t.Errorf("%s: watchdog tripped through the probe: %v", c.Name, gotTel.Watchdog.Trips())
		}
		if _, active := c.Build(3).(telemetry.ActiveSetReporter); active != (pr.activeN > 0) {
			t.Errorf("%s: active-set sampling %d, network reports active set %t", c.Name, pr.activeN, active)
		}
	}
}

// TestRoundDigests checks that every workload's round digest repeats
// exactly, that a traced round digests like an untraced one, that leaving
// observability off simulates the same, that the digest depends on the
// seed, and that pinned digests match.
func TestRoundDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full rounds")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		digests := func(seed int64, mode roundMode) (simD, jobD string) {
			r, err := runRound(w, seed, mode)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%s seed %d: %d failed jobs", w.name, seed, r.failed)
			}
			return roundDigest(r.simDigests), roundDigest(r.jobDigests)
		}
		firstSim, first := digests(1, untraced)
		if _, again := digests(1, untraced); again != first {
			t.Errorf("%s: digest %s then %s on repeat", w.name, first, again)
		}
		if _, tr := digests(1, traced); tr != first {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, tr, first)
		}
		if bareSim, _ := digests(1, bare); bareSim != firstSim {
			t.Errorf("%s: simulated outputs digest %s without observability, %s with", w.name, bareSim, firstSim)
		}
		if _, other := digests(2, untraced); other == first {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, first)
		}
		if pin, ok := pins.pinned(w.name, 1); ok && pin != first {
			t.Errorf("%s: digest %s, pinned %s", w.name, first, pin)
		}
	}
}

// TestTracedRunReportsEveryLayer checks a traced run's output carries
// every per-layer metric and an untraced run's every end-to-end metric.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full rounds")
	}
	w, err := workloadByName("observed-inspect")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		want   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		out, err := measure(w, 1, 0, tc.traced, pinTable{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted == 0 {
			t.Errorf("traced=%t: correct %t, attempted %d, failed %d", tc.traced, out.Correct, out.Attempted, out.Failed)
		}
		if len(out.Metrics) != len(tc.want) {
			t.Errorf("traced=%t: %d metrics, want %d", tc.traced, len(out.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if v, ok := out.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("traced=%t: metric %s = %+v, want unit %s", tc.traced, m.name, v, m.unit)
			}
		}
		if tc.traced {
			for _, name := range []string{"obs.events_per_cycle", "obs.overhead_x", "core.step_s", "electrical.active_routers_mean", "bench.trace_overhead_x"} {
				if out.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on observed-inspect, want > 0", name, out.Metrics[name].Value)
				}
			}
		}
	}
}

// TestMetricNames checks every metric name is well formed and unique, and
// that BENCHMARK.json declares exactly the metrics this code reports.
func TestMetricNames(t *testing.T) {
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q reported twice", m.name)
		}
		seen[m.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, reported []metricDef) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code reports %d", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code %s (%s)", kind, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}
