package main

import "sort"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics of an untraced run, medians over
// the run's rounds. wall_s and cpu_s cover the simulation phase; setup_s
// covers trace generation plus network, pattern and observer
// construction; alloc_mb covers the whole round.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced run's metrics, medians over its traced rounds.
// A layer that does no work on a workload (coherence outside
// splash-replay, obs outside observed-inspect, and so on) reads 0 there;
// such layers report shares and rates rather than times, so no time
// metric is a constant.
var perLayer = []metricDef{
	{"coherence.gen_share", "fraction"},
	{"coherence.msgs_per_s", "1/s"},
	{"coherence.alloc_mb", "MB"},
	{"sim.self_s", "s"},
	{"sim.nicfree_calls_per_cycle", "count"},
	{"sim.inject_calls", "count"},
	{"core.step_s", "s"},
	{"core.ns_per_cycle", "ns"},
	{"core.drops_per_delivery", "ratio"},
	{"core.phase.launch_share", "fraction"},
	{"core.phase.walk_share", "fraction"},
	{"core.phase.dropwindow_share", "fraction"},
	{"electrical.step_s", "s"},
	{"electrical.ns_per_cycle", "ns"},
	{"electrical.phase.vcalloc_share", "fraction"},
	{"electrical.phase.switch_share", "fraction"},
	{"electrical.active_routers_mean", "count"},
	{"obs.events_per_cycle", "count"},
	{"obs.events_per_ms", "1/ms"},
	{"obs.overhead_x", "x"},
	{"go.gc_cpu_frac", "fraction"},
	{"go.allocs_per_cycle", "count"},
	{"bench.trace_overhead_x", "x"},
	{"paper.speedup_err_pct", "%"},
	{"paper.power_err_pct", "%"},
}

// Paper reference values behind the paper.*_err_pct metrics: the abstract
// claims 2X network speedup at 80% lower network power for the four-hop
// network against the 3-cycle electrical baseline.
const (
	paperSpeedup        = 2.0
	paperPowerReduction = 0.80
)

// metricValue is one reported metric, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of vs (0 when empty); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, reading 0 when the layer did no work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
