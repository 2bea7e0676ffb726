// Package cache models the data-side memory hierarchy: L1/L2/L3
// set-associative write-back caches with LRU replacement, L1 miss status
// holding registers (MSHRs) with miss merging, a fixed-latency DRAM, and
// software prefetch — the timing substrate behind the paper's
// memory-dependent branch analysis (Figs 2a, 25) and DFD (§V).
//
// The hierarchy is timing-only: data always comes from the functional
// memory; Access returns when the data would be available and which level
// supplied it.
package cache

import (
	"fmt"
	"sync"

	"cfd/internal/pool"
)

// ServiceLevel identifies the furthest memory hierarchy level that serviced
// an access (paper Fig 2a's L1/L2/L3/MEM breakdown).
type ServiceLevel uint8

// Service levels.
const (
	NoData ServiceLevel = iota // not memory-dependent
	L1
	L2
	L3
	MEM
)

// String returns the paper's label for the level.
func (l ServiceLevel) String() string {
	switch l {
	case NoData:
		return "NoData"
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case MEM:
		return "MEM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Max returns the deeper of two service levels.
func Max(a, b ServiceLevel) ServiceLevel {
	if a > b {
		return a
	}
	return b
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Name    string
	SizeKB  int
	Ways    int
	Latency uint64 // load-to-use latency in cycles when this level hits
}

// Config describes the whole hierarchy.
type Config struct {
	LineBytes  int
	L1, L2, L3 LevelConfig
	MemLatency uint64
	NumMSHRs   int
	// SampleMSHRs enables the per-cycle L1 MSHR occupancy histogram
	// (Fig 25a); leave off for speed when unused.
	SampleMSHRs bool
	// NextLinePrefetch enables a simple hardware next-line prefetcher:
	// every demand L1 miss also fetches the following line. The paper's
	// Sandy Bridge baseline has hardware prefetchers; the default model
	// omits them (software DFD then shoulders all prefetching), and this
	// switch quantifies the difference.
	NextLinePrefetch bool
}

// DefaultConfig mirrors the paper's Sandy Bridge-like baseline (Fig 17a).
func DefaultConfig() Config {
	return Config{
		LineBytes:  64,
		L1:         LevelConfig{Name: "L1", SizeKB: 32, Ways: 8, Latency: 4},
		L2:         LevelConfig{Name: "L2", SizeKB: 256, Ways: 8, Latency: 12},
		L3:         LevelConfig{Name: "L3", SizeKB: 2048, Ways: 16, Latency: 30},
		MemLatency: 200,
		NumMSHRs:   32,
	}
}

// line is one cache way. tag holds lineAddr+1 for a valid line and 0 for
// an empty one, so a line is two words and a zeroed array is an empty
// cache.
type line struct {
	tag uint64
	lru uint64
}

// lineTag is the stored tag of lineAddr: the whole line address, so the
// lines of a one-set level never alias, plus one, which keeps 0 free to
// mean empty.
func lineTag(lineAddr uint64) uint64 { return lineAddr + 1 }

type level struct {
	cfg      LevelConfig
	lines    []line // set s holds lines[s*ways : (s+1)*ways]
	ways     int
	setMask  uint64
	accesses uint64
	misses   uint64
}

// levelSets returns how many sets cfg's level has with lineBytes lines.
func levelSets(cfg LevelConfig, lineBytes int) int {
	return max(cfg.SizeKB*1024/lineBytes/cfg.Ways, 1)
}

func newLevel(cfg LevelConfig, lines []line) level {
	return level{
		cfg:     cfg,
		lines:   lines,
		ways:    cfg.Ways,
		setMask: uint64(len(lines)/cfg.Ways - 1),
	}
}

// set returns the ways of lineAddr's set.
func (l *level) set(lineAddr uint64) []line {
	i := int(lineAddr&l.setMask) * l.ways
	return l.lines[i : i+l.ways]
}

// lookup probes for lineAddr; on hit it refreshes LRU.
func (l *level) lookup(lineAddr, clock uint64) bool {
	l.accesses++
	set := l.set(lineAddr)
	tag := lineTag(lineAddr)
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = clock
			return true
		}
	}
	l.misses++
	return false
}

// install fills lineAddr, evicting the LRU way.
func (l *level) install(lineAddr, clock uint64) {
	set := l.set(lineAddr)
	tag := lineTag(lineAddr)
	victim := 0
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = clock
			return
		}
		if set[i].tag == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, lru: clock}
}

type mshr struct {
	valid    bool
	lineAddr uint64
	fillAt   uint64
	level    ServiceLevel
}

// Hierarchy is the full data memory hierarchy.
type Hierarchy struct {
	cfg        Config
	lineShift  uint
	l1, l2, l3 level
	lineBuf    *[]line // every level's lines, from linePool
	mshrs      []mshr

	// Stats.
	mshrMergeHits uint64
	mshrStalls    uint64   // accesses delayed because every MSHR was busy
	Hist          []uint64 // MSHR occupancy histogram, index = busy count
	prefetches    uint64
	hwPrefetches  uint64

	inPrefetch bool // reentrancy guard for the hardware prefetcher
}

// linePool recycles the cache lines of released hierarchies (see Release).
var linePool sync.Pool

// New builds a hierarchy from cfg. Its three levels' lines are one array,
// taken zeroed from the pool a released hierarchy returns its lines to.
func New(cfg Config) *Hierarchy {
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	n1 := levelSets(cfg.L1, cfg.LineBytes) * cfg.L1.Ways
	n2 := levelSets(cfg.L2, cfg.LineBytes) * cfg.L2.Ways
	n3 := levelSets(cfg.L3, cfg.LineBytes) * cfg.L3.Ways
	buf := pool.Zeroed[line](&linePool, n1+n2+n3)
	lines := *buf
	return &Hierarchy{
		cfg:       cfg,
		lineShift: shift,
		l1:        newLevel(cfg.L1, lines[:n1]),
		l2:        newLevel(cfg.L2, lines[n1:n1+n2]),
		l3:        newLevel(cfg.L3, lines[n1+n2:]),
		lineBuf:   buf,
		mshrs:     make([]mshr, cfg.NumMSHRs),
		Hist:      make([]uint64, cfg.NumMSHRs+1),
	}
}

// Release returns the hierarchy's cache lines to the pool New takes them
// from. The hierarchy must not be used afterwards: its levels lose their
// lines, so an access panics. Counters, the MSHRs and Hist stay, so a
// Result may keep Hist.
func (h *Hierarchy) Release() {
	if h.lineBuf == nil {
		return
	}
	linePool.Put(h.lineBuf)
	h.lineBuf = nil
	h.l1.lines, h.l2.lines, h.l3.lines = nil, nil, nil
}

// LineAddr returns the cache line number of addr.
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return addr >> h.lineShift }

// Access performs a demand load or store at cycle now. It returns the cycle
// at which the data is available and the furthest level that serviced it.
func (h *Hierarchy) Access(addr uint64, now uint64) (uint64, ServiceLevel) {
	done, lvl := h.access(addr, now)
	if h.cfg.NextLinePrefetch && lvl > L1 && !h.inPrefetch {
		// Hardware next-line prefetch on a demand miss.
		h.inPrefetch = true
		h.hwPrefetches++
		h.access(addr+uint64(h.cfg.LineBytes), now)
		h.inPrefetch = false
	}
	return done, lvl
}

func (h *Hierarchy) access(addr uint64, now uint64) (uint64, ServiceLevel) {
	la := h.LineAddr(addr)
	// A line with an in-flight fill is not yet usable even though it has
	// been installed: merge into the outstanding MSHR first.
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if m.valid && m.fillAt > now && m.lineAddr == la {
			h.mshrMergeHits++
			return m.fillAt, m.level
		}
	}
	if h.l1.lookup(la, now) {
		return now + h.cfg.L1.Latency, L1
	}
	// Allocate an MSHR: reuse a retired one, else wait for the earliest.
	alloc := now
	slot := -1
	var earliest uint64 = ^uint64(0)
	ei := 0
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if !m.valid || m.fillAt <= now {
			slot = i
			break
		}
		if m.fillAt < earliest {
			earliest, ei = m.fillAt, i
		}
	}
	if slot < 0 {
		h.mshrStalls++
		slot = ei
		alloc = earliest
	}
	// Resolve from the next levels.
	var lat uint64
	var lvl ServiceLevel
	switch {
	case h.l2.lookup(la, now):
		lat, lvl = h.cfg.L2.Latency, L2
	case h.l3.lookup(la, now):
		lat, lvl = h.cfg.L3.Latency, L3
	default:
		lat, lvl = h.cfg.MemLatency, MEM
		h.l3.install(la, now)
	}
	h.l2.install(la, now)
	h.l1.install(la, now)
	fill := alloc + lat
	h.mshrs[slot] = mshr{valid: true, lineAddr: la, fillAt: fill, level: lvl}
	return fill, lvl
}

// Prefetch issues a software prefetch (PREF / DFD): same path as a load,
// but callers ignore the completion time.
func (h *Hierarchy) Prefetch(addr uint64, now uint64) {
	h.prefetches++
	h.Access(addr, now)
}

// Tick records cycles now through now+n-1 in the MSHR occupancy histogram
// when sampling is enabled. No access may happen inside the span: the core
// calls it once per cycle with n = 1, and once per idle-skipped span. A fill
// can still complete inside a span (a prefetch's fill wakes nothing), so the
// span is split at each outstanding fillAt.
func (h *Hierarchy) Tick(now, n uint64) {
	if !h.cfg.SampleMSHRs {
		return
	}
	for end := now + n; now < end; {
		busy, next := 0, end
		for i := range h.mshrs {
			if m := &h.mshrs[i]; m.valid && m.fillAt > now {
				busy++
				next = min(next, m.fillAt)
			}
		}
		h.Hist[busy] += next - now
		now = next
	}
}

// LevelStats reports accesses and misses for one level (1, 2, or 3).
func (h *Hierarchy) LevelStats(lvl ServiceLevel) (accesses, misses uint64) {
	switch lvl {
	case L1:
		return h.l1.accesses, h.l1.misses
	case L2:
		return h.l2.accesses, h.l2.misses
	case L3:
		return h.l3.accesses, h.l3.misses
	}
	return 0, 0
}

// MSHRStats reports merged misses and full-MSHR delays.
func (h *Hierarchy) MSHRStats() (merges, stalls uint64) {
	return h.mshrMergeHits, h.mshrStalls
}

// Prefetches reports the number of software prefetches issued.
func (h *Hierarchy) Prefetches() uint64 { return h.prefetches }

// HWPrefetches reports the number of hardware next-line prefetches issued.
func (h *Hierarchy) HWPrefetches() uint64 { return h.hwPrefetches }
