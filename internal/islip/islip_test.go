package islip

import (
	"math/rand"
	"reflect"
	"testing"
)

// reqFrom builds per-output request bitmaps from an input × output matrix.
func reqFrom(m [][]bool) []uint64 {
	req := make([]uint64, len(m[0]))
	for in, row := range m {
		for o, want := range row {
			if want {
				req[o] |= 1 << uint(in)
			}
		}
	}
	return req
}

// allReq is the request set in which every input requests every output.
func allReq(inputs, outputs int) []uint64 {
	req := make([]uint64, outputs)
	for o := range req {
		req[o] = 1<<uint(inputs) - 1
	}
	return req
}

func TestSingleRequest(t *testing.T) {
	a := New(4, 4, 1, 1)
	m := [][]bool{
		{false, true, false, false},
		{false, false, false, false},
		{false, false, false, false},
		{false, false, false, false},
	}
	got := a.Match(reqFrom(m))
	if got[1] != 0 {
		t.Fatalf("match = %v, want output 1 -> input 0", got)
	}
	for _, o := range []int{0, 2, 3} {
		if got[o] != -1 {
			t.Errorf("output %d matched to %d, want -1", o, got[o])
		}
	}
}

func TestFullPermutationMatched(t *testing.T) {
	// All inputs request all outputs: with enough iterations a maximal
	// matching (here perfect) must be found.
	a := New(4, 4, 1, 4)
	got := a.Match(allReq(4, 4))
	seen := map[int]bool{}
	for o, in := range got {
		if in < 0 {
			t.Fatalf("output %d unmatched in all-request pattern: %v", o, got)
		}
		if seen[in] {
			t.Fatalf("input %d matched twice: %v", in, got)
		}
		seen[in] = true
	}
}

func TestQuotaRespectedAndUsed(t *testing.T) {
	// One input requesting all 4 outputs with quota 4 gets all of them.
	a := New(2, 4, 4, 4)
	m := [][]bool{
		{true, true, true, true},
		{false, false, false, false},
	}
	got := a.Match(reqFrom(m))
	for o, in := range got {
		if in != 0 {
			t.Errorf("output %d -> %d, want 0", o, in)
		}
	}
	// Quota 2 limits it.
	a2 := New(2, 4, 2, 4)
	got2 := a2.Match(reqFrom(m))
	count := 0
	for _, in := range got2 {
		if in == 0 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("input 0 matched %d times, want quota 2", count)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two inputs permanently contending for one output should
	// alternate thanks to the pointer updates.
	a := New(2, 1, 1, 1)
	m := [][]bool{{true}, {true}}
	wins := map[int]int{}
	for i := 0; i < 100; i++ {
		got := a.Match(reqFrom(m))
		wins[got[0]]++
	}
	if wins[0] != 50 || wins[1] != 50 {
		t.Errorf("wins = %v, want perfect alternation 50/50", wins)
	}
}

func TestDesynchronisation(t *testing.T) {
	// The classic iSLIP property: under persistent uniform requests
	// the pointers desynchronise and throughput reaches 100% (every
	// output matched every cycle) after a warmup.
	a := New(4, 4, 1, 1)
	all := allReq(4, 4)
	for i := 0; i < 8; i++ {
		a.Match(all) // warmup
	}
	for i := 0; i < 20; i++ {
		got := a.Match(all)
		for o, in := range got {
			if in < 0 {
				t.Fatalf("cycle %d: output %d unmatched after desync: %v", i, o, got)
			}
		}
	}
}

// Property: matchings are always valid - no output double-matched (by
// construction) and no input exceeds quota; matched pairs were requested.
func TestMatchingValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(6, 5, 2, 3)
	for trial := 0; trial < 500; trial++ {
		m := make([][]bool, 6)
		for i := range m {
			m[i] = make([]bool, 5)
			for j := range m[i] {
				m[i][j] = rng.Intn(3) == 0
			}
		}
		got := a.Match(reqFrom(m))
		counts := map[int]int{}
		for o, in := range got {
			if in < 0 {
				continue
			}
			if !m[in][o] {
				t.Fatalf("matched unrequested pair in=%d out=%d", in, o)
			}
			counts[in]++
		}
		for in, c := range counts {
			if c > 2 {
				t.Fatalf("input %d matched %d times, quota 2", in, c)
			}
		}
	}
}

// Property: iSLIP finds a maximal matching given enough iterations - no
// (input, output) pair remains where both are unmatched/unsaturated and a
// request exists.
func TestMaximalWithIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(5, 5, 1, 5)
	for trial := 0; trial < 300; trial++ {
		m := make([][]bool, 5)
		for i := range m {
			m[i] = make([]bool, 5)
			for j := range m[i] {
				m[i][j] = rng.Intn(2) == 0
			}
		}
		got := a.Match(reqFrom(m))
		matchedIn := map[int]bool{}
		for _, in := range got {
			if in >= 0 {
				matchedIn[in] = true
			}
		}
		for in := 0; in < 5; in++ {
			if matchedIn[in] {
				continue
			}
			for o := 0; o < 5; o++ {
				if got[o] == -1 && m[in][o] {
					t.Fatalf("non-maximal: input %d / output %d both free with request", in, o)
				}
			}
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, g := range []struct {
		name                          string
		inputs, outputs, quota, iters int
	}{
		{"no inputs", 0, 4, 1, 1},
		{"no outputs", 4, 0, 1, 1},
		{"no quota", 4, 4, 0, 1},
		{"no iterations", 4, 4, 1, 0},
		{"inputs beyond a bitmap", MaxPorts + 1, 4, 1, 1},
		{"outputs beyond a bitmap", 4, MaxPorts + 1, 1, 1},
	} {
		t.Run(g.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d, %d, %d) did not panic", g.inputs, g.outputs, g.quota, g.iters)
				}
			}()
			New(g.inputs, g.outputs, g.quota, g.iters)
		})
	}
	New(MaxPorts, MaxPorts, 1, 1) // the largest geometry a bitmap holds
}

// TestZeroRequestsKeepPointers pins the property the electrical kernel's
// active-set walk relies on: an all-zero request set matches nothing and
// leaves every round-robin pointer where it was, so skipping an idle
// router's allocators is indistinguishable from running them.
func TestZeroRequestsKeepPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(50, 10, 1, 2)
	req := make([]uint64, 10)
	for i := 0; i < 40; i++ {
		for o := range req {
			req[o] = rng.Uint64() & (1<<50 - 1)
		}
		a.Match(req)
	}
	grantPtr := append([]int(nil), a.grantPtr...)
	acceptPtr := append([]int(nil), a.acceptPtr...)
	zero := make([]uint64, 10)
	for i := 0; i < 3; i++ {
		for o, in := range a.Match(zero) {
			if in != -1 {
				t.Fatalf("zero requests matched output %d to input %d", o, in)
			}
		}
	}
	if !reflect.DeepEqual(a.grantPtr, grantPtr) || !reflect.DeepEqual(a.acceptPtr, acceptPtr) {
		t.Fatalf("zero requests moved pointers: grant %v -> %v, accept %v -> %v",
			grantPtr, a.grantPtr, acceptPtr, a.acceptPtr)
	}
}

// refAllocator is the closure-driven allocator the bitmap Match replaced,
// kept verbatim as the reference the fuzz target checks it against: every
// request is a want(in, out) call, every pointer search a modular scan,
// and grants are per-input output lists.
type refAllocator struct {
	inputs, outputs int
	quota           int
	iterations      int
	grantPtr        []int
	acceptPtr       []int
	accepted        []int
	matchIn         []int
	grants          [][]int
}

func newRef(inputs, outputs, quota, iterations int) *refAllocator {
	a := &refAllocator{
		inputs: inputs, outputs: outputs,
		quota: quota, iterations: iterations,
		grantPtr:  make([]int, outputs),
		acceptPtr: make([]int, inputs),
		accepted:  make([]int, inputs),
		matchIn:   make([]int, outputs),
		grants:    make([][]int, inputs),
	}
	for i := range a.grants {
		a.grants[i] = make([]int, 0, outputs)
	}
	return a
}

func (a *refAllocator) Match(want func(in, out int) bool) []int {
	for i := range a.accepted {
		a.accepted[i] = 0
	}
	for o := range a.matchIn {
		a.matchIn[o] = -1
	}
	for iter := 0; iter < a.iterations; iter++ {
		for i := range a.grants {
			a.grants[i] = a.grants[i][:0]
		}
		granted := false
		for o := 0; o < a.outputs; o++ {
			if a.matchIn[o] >= 0 {
				continue
			}
			for k := 0; k < a.inputs; k++ {
				in := (a.grantPtr[o] + k) % a.inputs
				if a.accepted[in] >= a.quota || !want(in, o) {
					continue
				}
				a.grants[in] = append(a.grants[in], o)
				granted = true
				break
			}
		}
		if !granted {
			break
		}
		for in := 0; in < a.inputs; in++ {
			outs := a.grants[in]
			if len(outs) == 0 {
				continue
			}
			take := a.quota - a.accepted[in]
			if take > len(outs) {
				take = len(outs)
			}
			for t := 0; t < take; t++ {
				best, bestDist := -1, a.outputs+1
				for _, o := range outs {
					if a.matchIn[o] >= 0 {
						continue
					}
					d := (o - a.acceptPtr[in] + a.outputs) % a.outputs
					if d < bestDist {
						best, bestDist = o, d
					}
				}
				if best < 0 {
					break
				}
				a.matchIn[best] = in
				a.accepted[in]++
				if iter == 0 {
					a.grantPtr[best] = (in + 1) % a.inputs
					a.acceptPtr[in] = (best + 1) % a.outputs
				}
			}
		}
	}
	return a.matchIn
}

// FuzzISLIPMatch drives the bitmap allocator and the closure reference
// through the same sequence of request sets, so pointer state carries
// over between calls, and requires identical matchings and pointers on
// every call. The input decodes into a geometry (inputs and outputs
// 1..64, quota 1..4, iterations 1..3), a call count and a PRNG seed for
// the request sets, which mix empty, full and random-density patterns.
func FuzzISLIPMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		inputs := 1 + at(0)%MaxPorts
		outputs := 1 + at(1)%MaxPorts
		quota := 1 + at(2)%4
		iters := 1 + at(3)%3
		calls := 1 + at(4)%64
		var seed int64
		for i := 5; i < len(data); i++ {
			seed = seed*131 + int64(data[i])
		}
		rng := rand.New(rand.NewSource(seed))
		a, ref := New(inputs, outputs, quota, iters), newRef(inputs, outputs, quota, iters)
		inMask := uint64(1)<<uint(inputs) - 1
		if inputs == MaxPorts {
			inMask = ^uint64(0)
		}
		req := make([]uint64, outputs)
		for call := 0; call < calls; call++ {
			switch k := rng.Intn(8); k {
			case 0:
				clear(req)
			case 1:
				for o := range req {
					req[o] = inMask
				}
			default:
				// AND of k-1 draws: density 1/2 down to 1/64.
				for o := range req {
					r := rng.Uint64()
					for j := 2; j < k; j++ {
						r &= rng.Uint64()
					}
					req[o] = r & inMask
				}
			}
			want := ref.Match(func(in, out int) bool { return req[out]&(1<<uint(in)) != 0 })
			got := a.Match(req)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d (in=%d out=%d quota=%d iter=%d): match %v, reference %v",
					call, inputs, outputs, quota, iters, got, want)
			}
			if !reflect.DeepEqual(a.grantPtr, ref.grantPtr) || !reflect.DeepEqual(a.acceptPtr, ref.acceptPtr) {
				t.Fatalf("call %d (in=%d out=%d quota=%d iter=%d): pointers grant %v accept %v, reference grant %v accept %v",
					call, inputs, outputs, quota, iters, a.grantPtr, a.acceptPtr, ref.grantPtr, ref.acceptPtr)
			}
		}
	})
}
