package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"

	"phastlane/internal/mesh"
	"phastlane/internal/packet"
	"phastlane/internal/trace"
)

// globalLine is the directory's MSI record for one shared-region L2 line.
type globalLine struct {
	owner int // core holding the line Modified, or -1
	// sharers is a bitset over cores (bit c of word c/64) of every L2
	// holding the line, the owner included.
	sharers []uint64
}

// chainState is one outstanding-miss chain (MSHR) of a core: the trace
// message whose completion gates this chain's next miss.
type chainState struct {
	lastDep uint64
}

// generator runs the coherence protocol over synthetic reference streams
// and records the resulting network messages.
type generator struct {
	cfg Config
	p   Params
	rng *rand.Rand

	l1, l2 []*cache
	// shared is the directory, indexed by shared-region line number.
	// Private-region lines have no record: see line.
	shared []globalLine

	msgs   []trace.Message
	chains [][]chainState
	misses []int // per core, for chain round-robin and burst phase

	privPos, sharedPos []uint64
}

// sharedBase is the address bit marking the shared region (sharedAddr).
const sharedBase = uint64(1) << 48

// newGenerator validates the workload and hierarchy and builds a generator
// with cold caches and an empty directory.
func newGenerator(p Params, cfg Config, seed int64) (*generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// privateAddr gives each core 2^32 bytes below the shared region;
	// the directory relies on no two regions overlapping.
	if uint64(p.PrivateLines)*uint64(cfg.L2BlockBytes) > 1<<32 || cfg.Cores > 1<<16-1 {
		return nil, fmt.Errorf("coherence: %d cores x %d private lines overflow the address map", cfg.Cores, p.PrivateLines)
	}
	g := &generator{
		cfg:       cfg,
		p:         p,
		rng:       rand.New(rand.NewSource(seed)),
		l1:        make([]*cache, cfg.Cores),
		l2:        make([]*cache, cfg.Cores),
		shared:    make([]globalLine, p.SharedLines),
		chains:    make([][]chainState, cfg.Cores),
		misses:    make([]int, cfg.Cores),
		privPos:   make([]uint64, cfg.Cores),
		sharedPos: make([]uint64, cfg.Cores),
	}
	words := (cfg.Cores + 63) / 64
	bitsets := make([]uint64, p.SharedLines*words)
	for i := range g.shared {
		g.shared[i] = globalLine{owner: -1, sharers: bitsets[i*words : (i+1)*words : (i+1)*words]}
	}
	for c := 0; c < cfg.Cores; c++ {
		g.l1[c] = newCache(cfg.L1SizeBytes, cfg.L1Ways, cfg.L1BlockBytes)
		g.l2[c] = newCache(cfg.L2SizeBytes, cfg.L2Ways, cfg.L2BlockBytes)
		g.chains[c] = make([]chainState, p.MLP)
		g.privPos[c] = uint64(g.rng.Intn(p.PrivateLines))
		g.sharedPos[c] = uint64(g.rng.Intn(p.SharedLines))
	}
	return g, nil
}

// warm runs the hierarchy silently so the emitted trace reflects steady
// state - capacity misses, cache-to-cache transfers from Modified owners,
// and dirty writebacks - rather than a pure cold-start.
func (g *generator) warm() {
	warmRefs := 2 * g.cfg.L2SizeBytes / g.cfg.L2BlockBytes
	for c := 0; c < g.cfg.Cores; c++ {
		for i := 0; i < warmRefs; i++ {
			g.reference(c, true)
		}
	}
}

// GenerateTrace runs workload p over the cache hierarchy cfg and returns
// the network trace both simulators replay.
func GenerateTrace(p Params, cfg Config, seed int64) (*trace.Trace, error) {
	g, err := newGenerator(p, cfg, seed)
	if err != nil {
		return nil, err
	}
	g.warm()
	// Round-robin the cores; each turn runs references until one
	// produces network traffic, keeping per-core message interleaving
	// even.
	const maxRefsPerTurn = 400
	stuckTurns := 0
	for len(g.msgs) < p.Messages && stuckTurns < cfg.Cores*4 {
		progressed := false
		for c := 0; c < cfg.Cores && len(g.msgs) < p.Messages; c++ {
			for ref := 0; ref < maxRefsPerTurn; ref++ {
				if g.reference(c, false) {
					progressed = true
					break
				}
			}
		}
		if progressed {
			stuckTurns = 0
		} else {
			stuckTurns++
		}
	}
	if len(g.msgs) == 0 {
		return nil, fmt.Errorf("coherence: workload %q produced no traffic", p.Name)
	}
	tr := &trace.Trace{Nodes: cfg.Cores, Messages: g.msgs}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("coherence: generated invalid trace: %w", err)
	}
	return tr, nil
}

// lineBase addresses: private regions are disjoint per core; the shared
// region is common. All addresses are L2-line aligned.
func (g *generator) privateAddr(core int, line uint64) uint64 {
	return (uint64(core+1) << 32) | line*uint64(g.cfg.L2BlockBytes)
}

func (g *generator) sharedAddr(line uint64) uint64 {
	return sharedBase | line*uint64(g.cfg.L2BlockBytes)
}

// nextRef synthesises the next reference for a core.
func (g *generator) nextRef(core int) (addr uint64, write bool) {
	write = g.rng.Float64() < g.p.WriteFrac
	if g.rng.Float64() < g.p.SharedFrac {
		if g.rng.Float64() < g.p.Locality {
			g.sharedPos[core] = (g.sharedPos[core] + 1) % uint64(g.p.SharedLines)
		} else {
			g.sharedPos[core] = uint64(g.rng.Intn(g.p.SharedLines))
		}
		return g.sharedAddr(g.sharedPos[core]), write
	}
	if g.rng.Float64() < g.p.Locality {
		g.privPos[core] = (g.privPos[core] + 1) % uint64(g.p.PrivateLines)
	} else {
		g.privPos[core] = uint64(g.rng.Intn(g.p.PrivateLines))
	}
	return g.privateAddr(core, g.privPos[core]), write
}

// reference runs one memory reference through the hierarchy; it returns
// true when the L2 missed or upgraded. Outside warm-up that emits network
// traffic; during warm-up (warm) only cache and directory state change and
// no random draws are made beyond the reference itself.
func (g *generator) reference(core int, warm bool) bool {
	addr, write := g.nextRef(core)
	// L1 filters read hits; writes always consult the L2 so upgrade
	// traffic is preserved.
	if !write {
		if g.l1[core].lookup(addr) != nil {
			return false
		}
		g.l1[core].insert(addr, shared)
	}
	w := g.l2[core].lookup(addr)
	switch {
	case w == nil && warm:
		g.fill(core, addr, write)
	case w == nil:
		g.miss(core, addr, write)
	case write && w.state == shared:
		if !warm {
			g.upgrade(core, addr)
		}
		g.own(core, addr)
		w.state = modified
	default:
		return false // L2 hit in a sufficient state
	}
	return true
}

// line returns the directory record for addr, or nil for a private-region
// line. Only its own core ever references a private line, so its owner is
// -1 or that core and its sharers at most that core: no invalidation,
// owner supply or demotion can involve another core, and it needs no
// record.
func (g *generator) line(addr uint64) *globalLine {
	if addr&sharedBase == 0 {
		return nil
	}
	return &g.shared[(addr&^sharedBase)/uint64(g.cfg.L2BlockBytes)]
}

// remoteOwner returns the core other than core holding the line Modified,
// or -1.
func (gl *globalLine) remoteOwner(core int) int {
	if gl == nil || gl.owner == core {
		return -1
	}
	return gl.owner
}

// others calls f for every sharer of the line except core and skip, in
// ascending core order, so anything f emits is deterministic.
func (gl *globalLine) others(core, skip int, f func(s int)) {
	if gl == nil {
		return
	}
	for i, word := range gl.sharers {
		for ; word != 0; word &= word - 1 {
			if s := i*64 + bits.TrailingZeros64(word); s != core && s != skip {
				f(s)
			}
		}
	}
}

// own makes core the directory's Modified owner of addr, invalidating
// every other copy; the caller sets core's own L2 copy Modified.
func (g *generator) own(core int, addr uint64) {
	if gl := g.line(addr); gl != nil {
		gl.others(core, core, func(s int) {
			g.l2[s].invalidate(addr)
			g.l1[s].invalidate(addr)
		})
		gl.owner = core
		clear(gl.sharers)
		gl.sharers[core/64] |= 1 << (core % 64)
	}
}

// fill brings addr into core's L2 - Modified for a write, which takes
// ownership, Shared for a read, which demotes a remote Modified owner -
// and drops the evicted victim from the directory. It returns the victim.
func (g *generator) fill(core int, addr uint64, write bool) (victimAddr uint64, victimState lineState) {
	st := shared
	if write {
		st = modified
		g.own(core, addr)
	} else if gl := g.line(addr); gl != nil {
		if o := gl.remoteOwner(core); o >= 0 {
			g.l2[o].setState(addr, shared) // already a sharer
		}
		gl.owner = -1
		gl.sharers[core/64] |= 1 << (core % 64)
	}
	victimAddr, victimState = g.l2[core].insert(addr, st)
	if gl := g.line(victimAddr); victimState != invalid && gl != nil {
		gl.sharers[core/64] &^= 1 << (core % 64)
		if victimState == modified && gl.owner == core {
			gl.owner = -1
		}
	}
	return victimAddr, victimState
}

// pacing returns the think time before this core's next miss may inject,
// following the benchmark's burst structure.
func (g *generator) pacing(core int) int64 {
	n := g.misses[core]
	g.misses[core]++
	if g.p.BurstLen > 0 {
		phase := n % (g.p.BurstLen + g.p.BurstGap)
		if phase < g.p.BurstLen {
			return int64(g.p.BurstThink)
		}
	}
	return int64(g.p.ThinkMean + g.rng.Intn(g.p.ThinkMean/2+1))
}

// emit appends a message and returns its ID.
func (g *generator) emit(m trace.Message) uint64 {
	m.ID = uint64(len(g.msgs) + 1)
	g.msgs = append(g.msgs, m)
	return m.ID
}

// mcOf returns the memory controller owning a line: the 64 MCs are
// interleaved on a cache-line basis (paper Section 2).
func (g *generator) mcOf(addr uint64) int {
	return int((addr / uint64(g.cfg.L2BlockBytes)) % uint64(g.cfg.Cores))
}

// dirLatency is the directory lookup time at a home memory controller.
const dirLatency = 6

// miss handles an L2 miss: request the line (by broadcast under the snoopy
// protocol, or unicast to the home directory), have the owner or the
// line's memory controller reply, update MSI state, and write back any
// dirty victim.
func (g *generator) miss(core int, addr uint64, write bool) {
	if g.p.Protocol == DirectoryMSI {
		g.missDirectory(core, addr, write)
		return
	}
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	op := packet.OpReadReq
	if write {
		op = packet.OpWriteReq
	}
	req := g.emit(trace.Message{
		Src: mesh.NodeID(core), Dst: trace.Broadcast, Op: op,
		Dep: chain.lastDep, Think: g.pacing(core),
		EarliestCycle: g.stagger(chain.lastDep),
	})
	completion := req

	// Data supplier: the Modified owner if any, else the line's MC.
	supplier, latency := g.mcOf(addr), int64(g.cfg.MemLatency)
	if o := g.line(addr).remoteOwner(core); o >= 0 {
		supplier, latency = o, int64(g.cfg.SnoopLatency)
	}
	if supplier != core {
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(supplier), Dst: mesh.NodeID(core),
			Op: packet.OpDataReply, Dep: req, Think: latency,
		})
	}

	victimAddr, victimState := g.fill(core, addr, write)
	g.writeback(core, victimAddr, victimState, completion)
	chain.lastDep = completion
}

// missDirectory is the DirectoryMSI miss flow: unicast request to the home
// MC; the directory forwards to the Modified owner or replies itself, and
// sends targeted invalidations on writes. No broadcasts.
func (g *generator) missDirectory(core int, addr uint64, write bool) {
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	home := g.mcOf(addr)
	gl := g.line(addr)
	think := g.pacing(core)
	op := packet.OpReadReq
	if write {
		op = packet.OpWriteReq
	}

	// Request to the home directory (silent when home is local).
	reqDep := chain.lastDep
	req := reqDep
	if home != core {
		req = g.emit(trace.Message{
			Src: mesh.NodeID(core), Dst: mesh.NodeID(home), Op: op,
			Dep: reqDep, Think: think,
			EarliestCycle: g.stagger(reqDep),
		})
	}

	if write {
		g.invalidations(gl, core, home, req)
	}

	// Data supply: forward to the owner for a cache-to-cache transfer,
	// or reply from memory at the home node.
	completion := req
	if o := gl.remoteOwner(core); o >= 0 {
		fwd := req
		if o != home {
			fwd = g.emit(trace.Message{
				Src: mesh.NodeID(home), Dst: mesh.NodeID(o),
				Op: op, Dep: req, Think: dirLatency,
			})
		}
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(o), Dst: mesh.NodeID(core),
			Op: packet.OpDataReply, Dep: fwd, Think: int64(g.cfg.SnoopLatency),
		})
	} else if home != core {
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(home), Dst: mesh.NodeID(core),
			Op: packet.OpDataReply, Dep: req, Think: int64(dirLatency + g.cfg.MemLatency),
		})
	}

	victimAddr, victimState := g.fill(core, addr, write)
	g.writeback(core, victimAddr, victimState, completion)
	chain.lastDep = completion
}

// invalidations emits the home directory's targeted invalidation to every
// sharer of gl other than the requester and the home node itself, in
// ascending core order.
func (g *generator) invalidations(gl *globalLine, core, home int, req uint64) {
	gl.others(core, home, func(s int) {
		g.emit(trace.Message{
			Src: mesh.NodeID(home), Dst: mesh.NodeID(s),
			Op: packet.OpWriteReq, Dep: req, Think: dirLatency,
		})
	})
}

// upgrade emits the traffic of a write hit on a Shared line: a broadcast
// invalidation (snoopy) or targeted invalidations via the home directory.
// The caller then takes ownership (own).
func (g *generator) upgrade(core int, addr uint64) {
	if g.p.Protocol == DirectoryMSI {
		g.upgradeDirectory(core, addr)
		return
	}
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	req := g.emit(trace.Message{
		Src: mesh.NodeID(core), Dst: trace.Broadcast, Op: packet.OpWriteReq,
		Dep: chain.lastDep, Think: g.pacing(core),
		EarliestCycle: g.stagger(chain.lastDep),
	})
	chain.lastDep = req
}

// upgradeDirectory is the DirectoryMSI upgrade flow: request ownership at
// the home MC, which invalidates the other sharers and acknowledges.
func (g *generator) upgradeDirectory(core int, addr uint64) {
	chain := &g.chains[core][g.misses[core]%g.p.MLP]
	home := g.mcOf(addr)
	think := g.pacing(core)

	req := chain.lastDep
	if home != core {
		req = g.emit(trace.Message{
			Src: mesh.NodeID(core), Dst: mesh.NodeID(home),
			Op: packet.OpWriteReq, Dep: chain.lastDep, Think: think,
			EarliestCycle: g.stagger(chain.lastDep),
		})
	}
	g.invalidations(g.line(addr), core, home, req)
	completion := req
	if home != core {
		completion = g.emit(trace.Message{
			Src: mesh.NodeID(home), Dst: mesh.NodeID(core),
			Op: packet.OpAck, Dep: req, Think: dirLatency,
		})
	}
	chain.lastDep = completion
}

// writeback emits the writeback of a dirty victim to its memory controller
// (silent when that is the evicting core itself).
func (g *generator) writeback(core int, victimAddr uint64, victimState lineState, dep uint64) {
	if victimState != modified {
		return
	}
	if mc := g.mcOf(victimAddr); mc != core {
		g.emit(trace.Message{
			Src: mesh.NodeID(core), Dst: mesh.NodeID(mc),
			Op: packet.OpWriteback, Dep: dep, Think: 1,
		})
	}
}

// stagger spreads dependency-free first misses over the first cycles so
// cold-start injection is not perfectly synchronised.
func (g *generator) stagger(dep uint64) int64 {
	if dep != 0 {
		return 0
	}
	return int64(g.rng.Intn(24))
}
