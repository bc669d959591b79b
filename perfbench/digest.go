package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"

	"phastlane/internal/sim"
)

// simDigest fingerprints the simulated outputs of one harness call:
// cycles and makespan, traffic counts, the latency distribution's count,
// sum and p99, drops, retries, losses, unresolved messages and every
// energy field (by bit pattern). Host timings never enter it, and neither
// does observability, which must not change what is simulated.
func simDigest(label string, r sim.Result) uint64 {
	h := fnv.New64a()
	lat := &r.Run.Latency
	fmt.Fprintf(h, "%s|cyc=%d|mk=%d|off=%d|inj=%d|del=%d|n=%d|sum=%x|p99=%x|drop=%d|retry=%d|lost=%d/%d|unres=%d|sat=%t|e=%x,%x,%x",
		label, r.Run.Cycles, r.Makespan, r.Offered, r.Run.Injected, r.Run.Delivered,
		lat.Count(), math.Float64bits(lat.Mean()*float64(lat.Count())), math.Float64bits(lat.Percentile(99)),
		r.Run.Drops, r.Run.Retries, r.Lost, r.Run.Lost, r.Unresolved, r.Saturated,
		math.Float64bits(r.Run.ElectricalEnergyPJ), math.Float64bits(r.Run.OpticalEnergyPJ),
		math.Float64bits(r.Run.LeakagePJ))
	return h.Sum64()
}

// jobDigest extends a job's simulation digest with its observability
// outputs (trace events and provenance completions), which are
// deterministic too.
func jobDigest(j *job, sd uint64) uint64 {
	if j.tf == nil {
		return sd
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|events=%d|prov=%d", sd, j.tf.Events(), j.prov.Completed())
	return h.Sum64()
}

// roundDigest folds a round's job digests, in job order, into one.
func roundDigest(jobs []uint64) string {
	h := fnv.New64a()
	for _, d := range jobs {
		fmt.Fprintf(h, "%016x;", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinsJSON holds the expected round digest per GOARCH, workload and seed.
// Float energy sums may round differently where the compiler fuses
// multiply-adds, so pins are per architecture; a run on an architecture
// or seed without a pin checks only that its rounds agree.
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]map[string]string

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// pinned returns the pinned digest for workload and seed on this
// architecture, if any.
func (p pinTable) pinned(workload string, seed int64) (string, bool) {
	d, ok := p[runtime.GOARCH][workload][strconv.FormatInt(seed, 10)]
	return d, ok
}
