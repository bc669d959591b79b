// Package coherence implements the workload substrate behind the paper's
// SPLASH2 evaluation (Section 4, Tables 3 and 4): a 64-core snoopy
// cache-coherent system - private L1 data and L2 caches per core, MSI
// states over broadcast requests, line-interleaved memory controllers -
// driven by per-benchmark synthetic address streams. Running a workload
// produces a dependency-carrying packet trace (package trace) that both the
// Phastlane and electrical simulators replay, mirroring the paper's
// methodology of feeding both simulators identical SESC-generated traces.
//
// Substitution note (see DESIGN.md): the paper generated traces with the
// SESC full-system simulator running SPLASH2 binaries. This package
// replaces the cores with parameterised reference generators (working-set
// size, sharing degree, write fraction, memory-level parallelism,
// burstiness) in front of a real cache hierarchy and coherence protocol, so
// the network observes structurally identical traffic: broadcast miss
// requests, cache-to-cache and memory-controller data replies, upgrades,
// and writebacks, with per-core dependency chains pacing injection.
package coherence

import "fmt"

// Config describes the per-node cache hierarchy and memory, matching the
// paper's simulated parameters (Table 4).
type Config struct {
	Cores int
	// L1: 32 KB, 4-way, 32 B blocks.
	L1SizeBytes, L1Ways, L1BlockBytes int
	// L2: 256 KB, 16-way, 64 B blocks (the coherence unit).
	L2SizeBytes, L2Ways, L2BlockBytes int
	// MemLatency is the memory-controller access time in cycles.
	MemLatency int
	// SnoopLatency is the cache-to-cache supply time in cycles.
	SnoopLatency int
}

// DefaultConfig returns the Table 4 parameters for a 64-node system.
func DefaultConfig() Config {
	return Config{
		Cores:       64,
		L1SizeBytes: 32 << 10, L1Ways: 4, L1BlockBytes: 32,
		L2SizeBytes: 256 << 10, L2Ways: 16, L2BlockBytes: 64,
		MemLatency:   80,
		SnoopLatency: 4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("coherence: %d cores", c.Cores)
	}
	for _, g := range []struct {
		name              string
		size, ways, block int
	}{
		{"L1", c.L1SizeBytes, c.L1Ways, c.L1BlockBytes},
		{"L2", c.L2SizeBytes, c.L2Ways, c.L2BlockBytes},
	} {
		if g.size < 1 || g.ways < 1 || g.block < 1 {
			return fmt.Errorf("coherence: %s geometry %d/%d/%d", g.name, g.size, g.ways, g.block)
		}
		sets := g.size / (g.ways * g.block)
		if sets < 1 || sets&(sets-1) != 0 {
			return fmt.Errorf("coherence: %s set count %d not a power of two", g.name, sets)
		}
	}
	if c.MemLatency < 1 || c.SnoopLatency < 1 {
		return fmt.Errorf("coherence: latencies %d/%d", c.MemLatency, c.SnoopLatency)
	}
	return nil
}

// lineState is the MSI coherence state of a cached line.
type lineState uint8

const (
	invalid lineState = iota
	shared
	modified
)

// way is one cache way.
type way struct {
	tag   uint64
	state lineState
	used  uint64 // LRU timestamp
}

// cache is a set-associative, write-back, LRU cache.
type cache struct {
	sets      [][]way
	blockBits uint
	setBits   uint
	setMask   uint64
	tick      uint64
}

// newCache builds a cache from size/ways/block geometry.
func newCache(sizeBytes, ways, blockBytes int) *cache {
	sets := sizeBytes / (ways * blockBytes)
	c := &cache{
		sets:    make([][]way, sets),
		setMask: uint64(sets - 1),
	}
	for b := blockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	for m := c.setMask; m > 0; m >>= 1 {
		c.setBits++
	}
	ws := make([]way, sets*ways)
	for i := range c.sets {
		c.sets[i] = ws[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

// index returns the set slice and tag for an address.
func (c *cache) index(addr uint64) ([]way, uint64) {
	line := addr >> c.blockBits
	return c.sets[line&c.setMask], line >> c.setBits
}

// lookup returns the way holding addr, or nil. It refreshes LRU state on a
// hit.
func (c *cache) lookup(addr uint64) *way {
	set, tag := c.index(addr)
	for i := range set {
		if set[i].state != invalid && set[i].tag == tag {
			c.tick++
			set[i].used = c.tick
			return &set[i]
		}
	}
	return nil
}

// insert fills addr into its set, evicting the LRU way. It returns the
// victim's line address and state (victim.state == invalid when the slot
// was free).
func (c *cache) insert(addr uint64, st lineState) (victimAddr uint64, victimState lineState) {
	set, tag := c.index(addr)
	lru := 0
	for i := range set {
		if set[i].state == invalid {
			lru = i
			break
		}
		if set[i].used < set[lru].used {
			lru = i
		}
	}
	victimState = set[lru].state
	if victimState != invalid {
		victimAddr = ((set[lru].tag << c.setBits) | (addr >> c.blockBits & c.setMask)) << c.blockBits
	}
	c.tick++
	set[lru] = way{tag: tag, state: st, used: c.tick}
	return victimAddr, victimState
}

// invalidate drops addr if present, returning its previous state.
func (c *cache) invalidate(addr uint64) lineState {
	set, tag := c.index(addr)
	for i := range set {
		if set[i].state != invalid && set[i].tag == tag {
			st := set[i].state
			set[i].state = invalid
			return st
		}
	}
	return invalid
}

// setState updates the state of a resident line; it is a no-op when the
// line is absent.
func (c *cache) setState(addr uint64, st lineState) {
	if w := c.lookup(addr); w != nil {
		w.state = st
	}
}
