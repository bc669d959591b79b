package core

import (
	"fmt"
	"reflect"
	"testing"

	"phastlane/internal/coherence"
	"phastlane/internal/fault"
	"phastlane/internal/sim"
)

// memoChecker wraps a network and, after every Step, requires each parcel
// whose resegment memo is live to hold exactly the route a from-scratch
// rebuild from its owner produces: the skipped rebuilds are provably the
// ones that would have changed nothing. With forget set it instead kills
// every memo before each Step, so each relaunch rebuilds its route as if
// there were no memo.
type memoChecker struct {
	*Network
	t       *testing.T
	forget  bool
	checked int // parcels found with a live memo
}

// eachWaiting calls f on every parcel waiting to relaunch: queued in a
// buffer, or dropped and due back at the next drop-window resolution.
func (c *memoChecker) eachWaiting(f func(p *parcel)) {
	for i := range c.routers {
		for d := range c.routers[i].queues {
			for _, p := range c.routers[i].queues[d].items {
				f(p)
			}
		}
	}
	for _, rec := range c.pending {
		if rec.result == outcomeDropped {
			f(rec.p)
		}
	}
}

func (c *memoChecker) Step(buf []sim.Delivery) []sim.Delivery {
	if c.forget {
		c.eachWaiting(func(p *parcel) { p.segValid = false })
		return c.Network.Step(buf)
	}
	buf = c.Network.Step(buf)
	c.eachWaiting(func(p *parcel) {
		if !p.segValid || p.segOwner != p.owner || p.segLeft != len(p.remaining) {
			return
		}
		c.checked++
		ctl, launch := c.segmentFrom(p)
		if ctl != p.control || launch != p.launch {
			c.t.Fatalf("cycle %d: msg %d at owner %d (%d left) holds control %+v launch %v, rebuild gives %+v launch %v",
				c.cycle, p.msgID, p.owner, len(p.remaining), p.control, p.launch, ctl, launch)
		}
	})
	return buf
}

// TestResegmentMemoMatchesRebuild replays a broadcast-heavy coherence
// trace (Ocean) on the Optical4 and Optical4B64 configurations, where
// multicast sweeps wait in buffers and relaunch many times. It audits the
// memo after every cycle, and requires the whole replay — counters and
// energy included — to match a replay in which no memo ever survives to
// a relaunch.
func TestResegmentMemoMatchesRebuild(t *testing.T) {
	p, err := coherence.BenchmarkByName("Ocean")
	if err != nil {
		t.Fatal(err)
	}
	p.Messages = 600
	tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, buffers := range []int{10, 64} {
		cfg := DefaultConfig()
		cfg.BufferEntries = buffers
		var res [2]sim.Result
		for i, forget := range []bool{false, true} {
			c := &memoChecker{Network: New(cfg), t: t, forget: forget}
			if res[i], err = sim.RunTrace(c, tr, sim.ReplayConfig{}); err != nil {
				t.Fatal(err)
			}
			if !forget && c.checked == 0 {
				t.Fatalf("B%d: no parcel ever held a live memo", buffers)
			}
		}
		if r := res[0]; r.Saturated || r.Lost+r.Unresolved != 0 {
			t.Fatalf("B%d: replay did not complete: saturated %t, lost %d, unresolved %d",
				buffers, r.Saturated, r.Lost, r.Unresolved)
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("B%d: memoised replay differs from the rebuild-always replay:\n%s\n%s",
				buffers, replaySummary(res[0]), replaySummary(res[1]))
		}
	}
}

// replaySummary prints a replay's counters and energy, without the
// per-message latency samples.
func replaySummary(r sim.Result) string {
	return fmt.Sprintf("makespan %d drops %d retries %d links %d buffered %d optical %v pJ electrical %v pJ",
		r.Makespan, r.Run.Drops, r.Run.Retries, r.Run.LinkTraversals, r.Run.BufferedPackets,
		r.Run.OpticalEnergyPJ, r.Run.ElectricalEnergyPJ)
}

// TestResegmentMemoIdleUnderFaults runs the same replay under an armed
// fault plan, where faultPrepare rebuilds every candidate's route in
// place of resegment: the memo must never come alive.
func TestResegmentMemoIdleUnderFaults(t *testing.T) {
	p, err := coherence.BenchmarkByName("Ocean")
	if err != nil {
		t.Fatal(err)
	}
	p.Messages = 300
	tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = fault.RandomPlan(21, 8, 8, fault.RandomSpec{
		DeadLinks: 4, StuckRouters: 1, SlotFaults: 2, CorruptRate: 0.005,
	})
	cfg.RetryLimit = 8
	cfg.LossTimeout = 400
	c := &memoChecker{Network: New(cfg), t: t}
	if _, err := sim.RunTrace(c, tr, sim.ReplayConfig{Limit: 3000}); err != nil {
		t.Fatal(err)
	}
	if c.checked != 0 {
		t.Fatalf("%d parcels held a live memo under an armed fault plan", c.checked)
	}
}
