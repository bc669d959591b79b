package sim_test

import (
	"reflect"
	"testing"

	"phastlane/internal/provenance"
	"phastlane/internal/sim"
	"phastlane/internal/traffic"
)

// TestProvenanceDoesNotPerturbResults pins the observer-effect contract
// for the provenance layer: a run with a tracker teed into the event
// stream produces exactly the result of the same run without one, for
// both simulators. Provenance only listens; it never touches network or
// harness state.
func TestProvenanceDoesNotPerturbResults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newNet func() sim.Network
	}{
		{"optical", optical},
		{"electrical", baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// UniformRandom is stateful, so each run needs a fresh pattern.
			run := func(prov *provenance.Tracker) sim.Result {
				return sim.RunRate(tc.newNet(), sim.RateConfig{
					Pattern: traffic.UniformRandom(64, 1),
					Rate:    0.10, Warmup: 300, Measure: 1500, Seed: 7,
					Prov: prov,
				})
			}
			plain := run(nil)
			tr := provenance.New(provenance.Config{K: 32, Seed: 7, Width: 8, Height: 8})
			observed := run(tr)

			if !reflect.DeepEqual(plain, observed) {
				t.Errorf("provenance perturbed the run:\nplain:    %+v\nobserved: %+v", plain, observed)
			}
			if tr.Completed() != plain.Run.Delivered {
				t.Errorf("tracker completed %d, want %d", tr.Completed(), plain.Run.Delivered)
			}
		})
	}
}

// TestProvenanceOffIsFree asserts the nil-tracker path installs no
// tracer: with neither a collector nor a tracker configured, both
// networks run the same zero-allocation steady state the kernel tests
// pin, and the harness branch on a nil *Tracker costs nothing per
// message. (The per-network zero-alloc pins live in kernel_test.go; this
// test guards the harness's observer-attach seam specifically: a nil
// collector and nil tracker must tee to a nil tracer.)
func TestProvenanceOffIsFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newNet func() sim.Network
	}{
		{"optical", optical},
		{"electrical", baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stepZeroAlloc(t, tc.newNet(), 500)
		})
	}
}
