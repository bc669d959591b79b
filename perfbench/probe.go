package main

import (
	"time"

	"phastlane/internal/mesh"
	"phastlane/internal/obs"
	"phastlane/internal/sim"
	"phastlane/internal/stats"
	"phastlane/internal/telemetry"
)

// probe is the traced run's timing decorator around a sim.Network. It
// times Step and Inject, counts NICFree calls (a ~2 ns call that a pair of
// clock reads would dwarf, so its time stays in the harness's self time),
// counts deliveries, and samples the active-set size after every Step.
//
// It forwards every optional interface the harness type-asserts. Where
// the wrapped network lacks one, the probe behaves as the harness does
// for a network without it: handlers never fire, the active-set size is
// -1 and the invariant check passes. So a probed run takes the same code
// paths and produces the same sim.Result as a bare one.
type probe struct {
	net sim.Network
	asr telemetry.ActiveSetReporter
	// phases is the profile installed on the network: the probe's own,
	// or the one a telemetry.Run attached through SetPhases.
	phases *telemetry.Phases

	stepNanos, injectNanos  int64
	steps, injects, nicFree int64
	delivered               int64
	activeSum, activeN      int64
}

var (
	_ sim.Network                 = (*probe)(nil)
	_ sim.Traceable               = (*probe)(nil)
	_ sim.LossReporting           = (*probe)(nil)
	_ sim.CongestionReporting     = (*probe)(nil)
	_ telemetry.Instrumentable    = (*probe)(nil)
	_ telemetry.ActiveSetReporter = (*probe)(nil)
	_ telemetry.InvariantChecker  = (*probe)(nil)
)

// newProbe wraps net and installs a phase profile that times every cycle.
func newProbe(net sim.Network) *probe {
	p := &probe{net: net}
	p.asr, _ = net.(telemetry.ActiveSetReporter)
	p.SetPhases(telemetry.NewPhases(1))
	return p
}

func (p *probe) Nodes() int { return p.net.Nodes() }

func (p *probe) NICFree(n mesh.NodeID) int {
	p.nicFree++
	return p.net.NICFree(n)
}

func (p *probe) Inject(m sim.Message) {
	t0 := time.Now()
	p.net.Inject(m)
	p.injectNanos += time.Since(t0).Nanoseconds()
	p.injects++
}

func (p *probe) Step(buf []sim.Delivery) []sim.Delivery {
	n := len(buf)
	t0 := time.Now()
	buf = p.net.Step(buf)
	p.stepNanos += time.Since(t0).Nanoseconds()
	p.steps++
	p.delivered += int64(len(buf) - n)
	if p.asr != nil {
		p.activeSum += int64(p.asr.ActiveRouters())
		p.activeN++
	}
	return buf
}

func (p *probe) Quiescent() bool { return p.net.Quiescent() }

func (p *probe) Run() *stats.Run { return p.net.Run() }

func (p *probe) SetTracer(f func(obs.Event)) {
	if t, ok := p.net.(sim.Traceable); ok {
		t.SetTracer(f)
	}
}

func (p *probe) SetLossHandler(h func(sim.Loss)) {
	if lr, ok := p.net.(sim.LossReporting); ok {
		lr.SetLossHandler(h)
	}
}

func (p *probe) SetNackHandler(h func(mesh.NodeID)) {
	if cr, ok := p.net.(sim.CongestionReporting); ok {
		cr.SetNackHandler(h)
	}
}

func (p *probe) SetPhases(ph *telemetry.Phases) {
	if in, ok := p.net.(telemetry.Instrumentable); ok {
		in.SetPhases(ph)
		p.phases = ph
	}
}

func (p *probe) ActiveRouters() int {
	if p.asr == nil {
		return -1
	}
	return p.asr.ActiveRouters()
}

func (p *probe) CheckInvariants() error {
	if ic, ok := p.net.(telemetry.InvariantChecker); ok {
		return ic.CheckInvariants()
	}
	return nil
}
