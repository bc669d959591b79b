// Package islip implements the iSLIP iterative round-robin scheduling
// algorithm for input-queued switches (McKeown, ToN 1999), used by the
// electrical baseline router for both virtual-channel and switch allocation
// (paper Table 2).
//
// Each iteration performs a grant phase (every unmatched output grants the
// requesting input nearest its round-robin pointer) and an accept phase
// (every input accepts the granting output nearest its pointer, up to its
// quota). Pointers advance past granted/accepted positions only for matches
// made in the first iteration, which is what gives iSLIP its desynchronised,
// starvation-free behaviour.
//
// Requests, grants and saturated inputs are bitmaps, so one allocator
// covers at most 64 inputs and 64 outputs.
package islip

import (
	"fmt"
	"math/bits"
)

// MaxPorts is the largest input or output count an Allocator supports:
// one bit per port in a uint64.
const MaxPorts = 64

// Allocator matches inputs to outputs. The zero value is unusable;
// construct with New. Allocators are stateful: the round-robin pointers
// persist across Match calls, as in hardware.
type Allocator struct {
	inputs, outputs int
	quota           int // max outputs matched to one input per cycle
	iterations      int
	grantPtr        []int // per output, next input to favour
	acceptPtr       []int // per input, next output to favour
	// scratch, reused across calls
	accepted []int    // per input, matches this call
	matchIn  []int    // per output, matched input or -1
	grantsTo []uint64 // per input, bitmap of outputs granting it
}

// New returns an allocator for the given port counts. quota is the input
// speedup: how many distinct outputs a single input may be matched to in
// one cycle (1 for classic iSLIP, 4 for the baseline router's input
// speedup). iterations is the number of grant/accept rounds per cycle. It
// panics when either port count is outside 1..MaxPorts.
func New(inputs, outputs, quota, iterations int) *Allocator {
	if inputs < 1 || outputs < 1 || quota < 1 || iterations < 1 ||
		inputs > MaxPorts || outputs > MaxPorts {
		panic(fmt.Sprintf("islip: invalid geometry in=%d out=%d quota=%d iter=%d",
			inputs, outputs, quota, iterations))
	}
	return &Allocator{
		inputs: inputs, outputs: outputs,
		quota: quota, iterations: iterations,
		grantPtr:  make([]int, outputs),
		acceptPtr: make([]int, inputs),
		accepted:  make([]int, inputs),
		matchIn:   make([]int, outputs),
		grantsTo:  make([]uint64, inputs),
	}
}

// firstFrom returns the lowest set bit of mask at or after position ptr,
// wrapping to the lowest set bit overall. mask must be non-zero.
func firstFrom(mask uint64, ptr int) int {
	if hi := mask >> uint(ptr); hi != 0 {
		return ptr + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(mask)
}

// Match computes a matching for the current request pattern: bit in of
// req[o] is set when input in requests output o (len(req) is the output
// count; bits at or above the input count must be clear). The result maps
// each output to its matched input, or -1. No output is matched twice; no
// input is matched more than its quota. An all-zero request set matches
// nothing and leaves every pointer unchanged.
//
// The returned slice is the allocator's scratch buffer: it is valid until
// the next Match call and must not be retained or mutated. Match performs
// no allocation, which keeps the electrical router's steady-state cycle
// loop allocation-free.
func (a *Allocator) Match(req []uint64) []int {
	req = req[:a.outputs]
	for i := range a.accepted {
		a.accepted[i] = 0
	}
	for o := range a.matchIn {
		a.matchIn[o] = -1
	}
	var saturated uint64 // inputs at their quota
	for iter := 0; iter < a.iterations; iter++ {
		// Grant phase: each unmatched output picks the first
		// requesting, non-saturated input at or after its pointer.
		// Each output grants at most one input, so the per-input
		// grant masks are disjoint and the accept phase below is
		// order-independent across inputs.
		var granted uint64 // inputs holding at least one grant
		for o := 0; o < a.outputs; o++ {
			if a.matchIn[o] >= 0 {
				continue
			}
			cand := req[o] &^ saturated
			if cand == 0 {
				continue
			}
			in := firstFrom(cand, a.grantPtr[o])
			a.grantsTo[in] |= 1 << uint(o)
			granted |= 1 << uint(in)
		}
		if granted == 0 {
			break
		}
		// Accept phase: each input takes the granting outputs
		// nearest its pointer, up to its remaining quota. The
		// pointer moves mid-loop in the first iteration, so a
		// quota above 1 walks on from each accepted output.
		for g := granted; g != 0; g &= g - 1 {
			in := bits.TrailingZeros64(g)
			outs := a.grantsTo[in]
			a.grantsTo[in] = 0
			for ; outs != 0 && a.accepted[in] < a.quota; a.accepted[in]++ {
				o := firstFrom(outs, a.acceptPtr[in])
				outs &^= 1 << uint(o)
				a.matchIn[o] = in
				if iter == 0 {
					a.grantPtr[o] = (in + 1) % a.inputs
					a.acceptPtr[in] = (o + 1) % a.outputs
				}
			}
			if a.accepted[in] >= a.quota {
				saturated |= 1 << uint(in)
			}
		}
	}
	return a.matchIn
}
