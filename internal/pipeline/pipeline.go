// Package pipeline is the execute-at-execute, cycle-level model of the
// paper's out-of-order core (§III-C, §IV, §VI): a conventional superscalar
// pipeline — fetch (branch predictor, BTB, RAS), decode/rename (RMT, ring
// freelist), dispatch, issue queue, execution lanes, load/store queues,
// ROB, in-order retire — extended with the CFD hardware:
//
//   - the BQ and TQ live in the fetch unit and resolve BranchBQ /
//     BranchTCR / PopTQ at fetch, timely and non-speculatively;
//   - speculative pops on BQ misses take checkpoints and are confirmed or
//     disconfirmed by late pushes (§III-C2);
//   - the VQ renamer in the rename stage maps the architectural value
//     queue onto the physical register file (§IV-B2);
//   - misprediction recovery restores rename state, queue pointers, the
//     TCR, and predictor history, with checkpointed branches recovering at
//     resolve and uncheckpointed ones at retire.
//
// Wrong paths are genuinely fetched, renamed, executed, and squashed;
// values flow through a physical register file written at issue time.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cfd/internal/cache"
	"cfd/internal/config"
	"cfd/internal/core"
	"cfd/internal/energy"
	"cfd/internal/fault"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/obs"
	"cfd/internal/pool"
	"cfd/internal/predictor"
	"cfd/internal/prog"
	"cfd/internal/stats"
)

// ErrLimit is returned by Run when the retired-instruction budget is
// exhausted before HALT retires.
var ErrLimit = errors.New("pipeline: instruction limit reached")

// ErrDeadlock is returned, inside a fault.Deadlock fault, when no
// instruction retires for a long time — always a model or program bug.
// The fault's text names the engine, the pc and the cycle.
var ErrDeadlock = errors.New("no retirement progress (deadlock)")

const noReg = int32(-1)

// uop is one in-flight instruction. Fetch builds one for every fetched
// instruction, right path and wrong path alike, so its size is host cost
// per fetched uop: fields are grouped by size so the struct packs without
// padding, and the predictor state only branches need lives in the bp side
// array (bpSlot), not here.
type uop struct {
	seq     uint64
	pc      uint64
	inst    isa.Inst
	readyAt uint64 // cycle at which it may rename (front-end depth)

	// Control targets.
	predTarget uint64
	actTarget  uint64

	// Undo records for walk-based recovery.
	oldTCR  uint64
	oldMark uint64
	bqIdx   int64 // PushBQ: allocated tail; BranchBQ: popped head
	tqIdx   int64
	vqIdx   int64
	fwdFrom uint64
	fwdTo   uint64

	// Memory state.
	addr      uint64
	storeData uint64
	sqPos     uint64

	// Stage timestamps (pipeline tracing).
	fetchAt  uint64
	renameAt uint64
	issueAt  uint64
	doneAt   uint64

	// Rename state (physical registers; -1 = none).
	pdst, psrc1, psrc2, psrc3 int32
	pold                      int32
	vqSrcPreg                 int32
	rasOldTop                 int32 // JAL/JR: RAS top before the push/pop

	storeSize uint8
	memLevel  cache.ServiceLevel
	srcLevel  cache.ServiceLevel

	// Issue-port routing, decided once at fetch so select does not
	// re-derive it from the opcode.
	port   port
	mulDiv bool

	// pending counts the source operands not yet ready while the uop waits
	// in the issue queue (see wakeup.go).
	pending uint8

	// Control state.
	isCond        bool
	isJR          bool
	predTaken     bool
	actTaken      bool
	resolvedFetch bool // direction known non-speculatively at fetch
	usedPredictor bool
	usedOracle    bool
	specPop       bool // BranchBQ that missed and speculated
	hasCkpt       bool
	mispredict    bool
	retireRecover bool // recover at retire (no checkpoint)
	recovered     bool
	oldMarkOK     bool
	fwdHadMark    bool // ForwardBQ: a MarkBQ preceded it (checked at retire)

	isLoad, isStore bool
	inIQ            bool
	executed        bool
	issued          bool
	squashed        bool
	isHalt          bool
}

// bpSlot is a branch's predictor state: the Lookup that Train consumes at
// retirement and the history snapshot a recovery restores. It sits in a
// side array indexed like the rob (pos & robMask) because only branches
// that consult the predictor or snapshot history write it.
type bpSlot struct {
	lookup predictor.Lookup
	hist   predictor.HistSnap
}

// bqEntryHW is a physical BQ entry (paper Fig 9): the software-visible
// predicate plus the pushed bit, popped bit, and the speculating pop's
// identity (its checkpoint handle).
type bqEntryHW struct {
	pred     bool
	pushed   bool
	popped   bool
	predPred bool
	popSeq   uint64 // seq of the speculating pop (for late-push recovery)
	popRob   uint64
	srcLevel cache.ServiceLevel // taint of the push's sources (attribution)
}

// bqHW is the fetch unit's branch queue. Pointers are monotonic; the entry
// index is ptr % size. The architectural length used for the fetch stall
// rule (§III-C3) is specTail - commHead: fetched-but-unretired pushes
// (pending_push_ctr) plus retired-but-unpopped entries (net_push_ctr).
type bqHW struct {
	size     int // architectural capacity (the fetch stall rule)
	mask     uint64
	entries  []bqEntryHW // len is size rounded up to a power of two
	specHead uint64
	specTail uint64
	specMark uint64
	markOK   bool
	commHead uint64
}

func (q *bqHW) length() int { return int(q.specTail - q.commHead) }

func (q *bqHW) at(pos uint64) *bqEntryHW { return &q.entries[pos&q.mask] }

// tqEntryHW is a physical TQ entry: trip count, overflow, pushed bit.
type tqEntryHW struct {
	count    uint32
	overflow bool
	pushed   bool
}

type tqHW struct {
	size     int
	mask     uint64
	entries  []tqEntryHW
	specHead uint64
	specTail uint64
	commHead uint64
}

func (q *tqHW) length() int { return int(q.specTail - q.commHead) }

func (q *tqHW) at(pos uint64) *tqEntryHW { return &q.entries[pos&q.mask] }

// vqRen is the VQ renamer (paper Fig 12): a circular buffer of physical
// register mappings in the rename stage.
type vqRen struct {
	size     int
	mask     uint64
	mapping  []int32
	specHead uint64
	specTail uint64
	commHead uint64
}

func (q *vqRen) length() int { return int(q.specTail - q.commHead) }

func (q *vqRen) at(pos uint64) *int32 { return &q.mapping[pos&q.mask] }

// sqEntry is a store queue entry. Address generation is decoupled from
// data: the address resolves as soon as the base register is ready, letting
// younger non-conflicting loads issue around the store.
type sqEntry struct {
	seq    uint64
	robPos uint64
	addr   uint64
	size   int
	data   uint64
	addrOK bool
	dataOK bool
}

// Stats accumulates the simulation counters the experiments consume.
type Stats struct {
	Cycles  uint64
	Retired uint64
	Fetched uint64

	// Conditional branch accounting (retired only).
	CondBranches   uint64
	Mispredicts    uint64
	MispredByLevel [5]uint64 // indexed by cache.ServiceLevel
	BTBMisfetches  uint64

	// CFD accounting.
	BQPops            uint64 // retired BranchBQ
	BQResolvedAtFetch uint64
	BQMisses          uint64 // speculative pops (retired)
	BQLateMispredict  uint64
	BQFullStalls      uint64 // cycles fetch stalled on a full BQ
	BQMissStalls      uint64 // cycles fetch stalled on a BQ miss (stall policy)
	TQPops            uint64
	TQMissStalls      uint64
	TCRBranches       uint64

	// Squash accounting.
	SquashedUops     uint64
	Recoveries       uint64
	RetireRecoveries uint64

	// Per-static-branch stats (retired conditional branches).
	PerBranch map[uint64]*BranchStat

	// CPI is the cycle-attribution stack: every cycle is charged to
	// exactly one bucket, so CPI.Total() == Cycles (see cpi.go).
	CPI stats.CPIStack
}

// BranchStat is per-static-branch retirement statistics.
type BranchStat struct {
	Execs       uint64
	Mispredicts uint64
	Taken       uint64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MPKI returns mispredictions per 1000 retired instructions.
func (s *Stats) MPKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Retired)
}

// Core is one simulated processor core bound to a program and memory.
type Core struct {
	cfg  config.Core
	prog *prog.Program
	mem  *mem.Memory
	hier *cache.Hierarchy

	// Front end.
	fetchPC        uint64
	fetchStallTill uint64
	haltFetched    bool
	seq            uint64
	pred           predictor.DirPredictor
	btb            *predictor.BTB
	ras            *predictor.RAS
	conf           *predictor.Confidence
	oracle         *Oracle
	perfectBP      bool
	feDelay        uint64

	bq      bqHW
	tq      tqHW
	vq      vqRen
	specTCR uint64

	// Rename state.
	rmt      [isa.NumRegs]int32
	amt      [isa.NumRegs]int32
	freeRing []int32
	flHead   uint64 // alloc position (monotonic)
	flTail   uint64 // free position (monotonic)

	// Physical register file.
	prf      []uint64
	prfReady []bool
	prfLevel []cache.ServiceLevel

	// Window. The rob, sq, and freeRing backings are rounded up to powers
	// of two so monotonic positions index with a mask instead of a modulo;
	// architectural capacities come from the config, not the backing
	// length.
	//
	// The front-end queue shares the rob ring: fetch constructs each uop
	// directly in the slot it will occupy, positions [robTail, fqTail);
	// rename merely advances robTail, so a uop never moves once written
	// (copying a several-hundred-byte uop per stage dominated the hot
	// loop). The ring is sized for ROBSize plus the front-end capacity.
	rob     []uop
	bp      []bpSlot  // branch predictor state, indexed like rob
	robBuf  *[]uop    // rob, from robPool
	bpBuf   *[]bpSlot // bp, from bpPool
	robMask uint64
	robHead uint64
	robTail uint64
	fqTail  uint64
	sq      []sqEntry
	sqMask  uint64
	sqHead  uint64
	sqTail  uint64
	lqCount int
	flMask  uint64

	// sqResolvedTo is the seq of the oldest store-queue entry whose
	// address is still unresolved (^0 when all are resolved): a load is
	// disambiguation-ready iff its seq does not exceed it. agenStores
	// refreshes it each cycle; a store resolving at execute advances it so
	// same-cycle younger loads see the address, as a live SQ walk would.
	sqResolvedTo uint64

	usedCkpts int

	// Issue queue: wakeup state over the rob slots (see wakeup.go).
	iqLen    int      // uops waiting to issue
	ready    []uint64 // operand-ready bitmap, one bit per rob slot
	waitHead []int32  // per physical register: first waiter node (0 = none)
	waiters  []waiter // waiter node pool; node 0 is unused
	waitFree int32    // waiter free-list head (0 = empty)

	events wheel // completion events (see wheel.go)

	now             uint64
	done            bool
	lastRetireCycle uint64
	trace           *tracer
	obsv            *obs.Observer

	// Hardened-runtime state: the watchdog bounding Run, the
	// no-retirement-progress limit, and the last-retired diagnostic ring
	// captured into fault snapshots.
	wd         *fault.Watchdog
	stallLimit uint64
	diag       fault.Ring

	// Cycle-attribution state (see cpi.go).
	cycRetired  int        // instructions retired this cycle
	cycOverhead int        // CFD bookkeeping instructions retired this cycle
	ohDebt      int        // accumulated bookkeeping retire slots
	cycStall    stallCause // why fetch stalled this cycle
	shadow      recoverShadow

	// Idle-cycle skip state (see idleSkip): whether the last cycle made
	// any progress, the CPI bucket it was charged to, and the stall
	// counter (if any) the stalled fetch path bumped — both replicated
	// exactly for each fast-forwarded cycle.
	cycIssued    int
	cycCompleted int
	idle         bool // the last cycle made no progress
	lastBucket   stats.CPIBucket
	cycStallCtr  *uint64
	idleSkipOff  bool

	// Context-switch scratch (lazily created on the first save/restore,
	// then reused) so queue save/restore allocates nothing in steady
	// state; see ctxswitch.go.
	ctxBQ  *core.BQ
	ctxTQ  *core.TQ
	ctxVQ  *core.VQ
	ctxImg []byte

	Stats Stats
	Meter *energy.Meter
}

// fqLen returns the front-end queue occupancy.
func (c *Core) fqLen() int { return int(c.fqTail - c.robTail) }

func (c *Core) fqFront() *uop { return c.robAt(c.robTail) }

// Option configures a Core.
type Option func(*Core)

// WithOracle supplies recorded true branch outcomes. Branch PCs covered by
// the oracle resolve at fetch with the true outcome ("perfect prediction"
// for those branches, e.g. Base+PerfectCFD in Fig 19).
func WithOracle(o *Oracle) Option { return func(c *Core) { c.oracle = o } }

// WithPerfectBP makes every conditional branch consult the oracle
// (full perfect prediction); requires WithOracle.
func WithPerfectBP() Option { return func(c *Core) { c.perfectBP = true } }

// WithObserver attaches an interval sampler and queue-occupancy profiler to
// the core: every cycle it observes BQ/VQ/TQ occupancy, and at each
// sampling boundary it snapshots interval IPC, mispredicts/KI, fetch/BQ/TQ
// stall fractions, and cache MPKI into the observer's time series. Idle
// cycles are observed a skipped span at a time (see idleSkip), so the
// observed run takes the unobserved run's code path. A nil observer is
// valid and free: the per-cycle hook is skipped entirely (the
// zero-overhead-when-disabled contract, pinned by the obs benchmarks).
func WithObserver(o *obs.Observer) Option { return func(c *Core) { c.obsv = o } }

// WithWatchdog bounds Run with a cycle budget and/or wall-clock deadline.
// Expiry surfaces as a fault.WatchdogExpiry fault carrying a machine-state
// snapshot, never a hang.
func WithWatchdog(w *fault.Watchdog) Option { return func(c *Core) { c.wd = w } }

// WithDeadlockLimit overrides how many cycles may pass without a retirement
// before Run reports a deadlock fault (default defaultStallLimit; tests use
// small values to keep hang scenarios fast).
func WithDeadlockLimit(cycles uint64) Option {
	return func(c *Core) { c.stallLimit = cycles }
}

// WithoutIdleSkip disables idle-cycle fast-forwarding, simulating every
// cycle individually. Results are identical either way (pinned by the
// idle-skip equivalence test); this exists for that test and for debugging.
func WithoutIdleSkip() Option { return func(c *Core) { c.idleSkipOff = true } }

// defaultStallLimit is the no-retirement-progress bound: generously above
// any legitimate stall (a full-window chain of memory misses resolves in
// thousands of cycles, not hundreds of thousands).
const defaultStallLimit = 200000

// robPool and bpPool recycle the rob and bp rings of released cores (see
// Release). Their lengths follow the window, so a core larger than the one
// that released an array misses and allocates.
var (
	robPool sync.Pool
	bpPool  sync.Pool
)

// New builds a core. The memory m holds the workload's initial data; the
// core commits stores back to it, so pass a clone if the caller needs the
// original. m may be nil. The large zeroed arrays — the cache lines, the
// BTB entries, the event wheel's buckets and the rob and bp rings — come
// from pools that Release returns them to; every other field is built
// fresh.
func New(cfg config.Core, p *prog.Program, m *mem.Memory, opts ...Option) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		m = mem.New()
	}
	bqCap := nextPow2(cfg.BQSize)
	tqCap := nextPow2(cfg.TQSize)
	vqCap := nextPow2(cfg.VQSize)
	// The rob ring also hosts the front-end queue (see the Core field
	// comment), so size it for both occupancies, and to at least one
	// bitmap word so ready-bitmap words never wrap mid-word.
	capFQ := cfg.FetchWidth * (cfg.FrontEndDepth + 1)
	robCap := nextPow2(max(cfg.ROBSize+capFQ, 64))
	sqCap := nextPow2(cfg.SQSize)
	robBuf := pool.Zeroed[uop](&robPool, int(robCap))
	bpBuf := pool.Zeroed[bpSlot](&bpPool, int(robCap))
	c := &Core{
		cfg:     cfg,
		prog:    p,
		mem:     m,
		hier:    cache.New(cfg.Cache),
		btb:     predictor.NewBTB(cfg.BTBLogSets, cfg.BTBWays),
		ras:     predictor.NewRAS(cfg.RASDepth),
		conf:    predictor.NewConfidence(12, cfg.ConfidenceThresh),
		feDelay: uint64(cfg.FrontEndDepth - 1),
		bq:      bqHW{size: cfg.BQSize, mask: bqCap - 1, entries: make([]bqEntryHW, bqCap)},
		tq:      tqHW{size: cfg.TQSize, mask: tqCap - 1, entries: make([]tqEntryHW, tqCap)},
		vq:      vqRen{size: cfg.VQSize, mask: vqCap - 1, mapping: make([]int32, vqCap)},
		rob:     *robBuf,
		bp:      *bpBuf,
		robBuf:  robBuf,
		bpBuf:   bpBuf,
		robMask: robCap - 1,
		sq:      make([]sqEntry, sqCap),
		sqMask:  sqCap - 1,
		ready:   make([]uint64, robCap/64),
		waiters: make([]waiter, 1, 4*robCap),
		events:  newWheel(int(robCap)),
		Meter:   energy.NewMeter(energy.DefaultModel(cfg.ROBSize)),
	}
	switch cfg.Predictor {
	case config.PredGshare:
		c.pred = predictor.NewGshare(14, 16)
	case config.PredBimodal:
		c.pred = predictor.NewBimodal(14)
	default:
		c.pred = predictor.NewISLTAGE()
	}
	// Physical register file: logical registers map to pregs 0..31, the
	// rest are free. preg 0 backs r0 and stays 0.
	n := cfg.NumPhysRegs
	c.prf = make([]uint64, n)
	c.prfReady = make([]bool, n)
	c.prfLevel = make([]cache.ServiceLevel, n)
	c.waitHead = make([]int32, n)
	flCap := nextPow2(n)
	c.freeRing = make([]int32, flCap)
	c.flMask = flCap - 1
	for i := 0; i < isa.NumRegs; i++ {
		c.rmt[i] = int32(i)
		c.amt[i] = int32(i)
		c.prfReady[i] = true
	}
	free := 0
	for pr := isa.NumRegs; pr < n; pr++ {
		c.freeRing[free] = int32(pr)
		free++
	}
	c.flTail = uint64(free)
	c.Stats.PerBranch = make(map[uint64]*BranchStat)
	for _, o := range opts {
		o(c)
	}
	if c.perfectBP && c.oracle == nil {
		return nil, errors.New("pipeline: WithPerfectBP requires WithOracle")
	}
	return c, nil
}

// Release returns the core's pooled arrays (see New) for the next core to
// reuse. Call it once nothing reads the core any more: the released fields
// are nil afterwards, so a use after release panics. Stats, the memory, the
// observer and the hierarchy's Hist are not pooled, so a Result built from
// them stays valid.
func (c *Core) Release() {
	if c.robBuf == nil {
		return
	}
	c.hier.Release()
	c.btb.Release()
	bucketPool.Put(c.events.bucketsBuf)
	robPool.Put(c.robBuf)
	bpPool.Put(c.bpBuf)
	c.events.buckets, c.events.bucketsBuf = nil, nil
	c.rob, c.robBuf = nil, nil
	c.bp, c.bpBuf = nil, nil
}

// Cycle runs one clock cycle.
func (c *Core) Cycle() error {
	c.hier.Tick(c.now, 1)
	c.cycRetired = 0
	c.cycOverhead = 0
	c.cycStall = stallNone
	c.cycStallCtr = nil
	c.cycIssued = 0
	c.cycCompleted = 0
	robTail0, fqTail0 := c.robTail, c.fqTail
	if err := c.retire(); err != nil {
		return err
	}
	c.complete()
	c.issue()
	if err := c.rename(); err != nil {
		return err
	}
	if err := c.fetch(); err != nil {
		return err
	}
	c.idle = c.cycRetired == 0 && c.cycCompleted == 0 && c.cycIssued == 0 &&
		c.robTail == robTail0 && c.fqTail == fqTail0
	c.attributeCycle()
	if c.obsv != nil {
		c.obsTick()
	}
	c.now++
	c.Stats.Cycles++
	c.Meter.AddCycles(1)
	return nil
}

// idleSkip fast-forwards over cycles in which no stage can make progress.
//
// A cycle with no retirement, no completion event, no issue, no rename, and
// no fetch leaves every piece of machine state except the clock untouched,
// so the next cycle repeats it exactly — until one of the things the frozen
// state is waiting on arrives. Those wake sources are exhaustively:
//
//   - a scheduled completion event (loads, long-latency ops),
//   - fetchStallTill expiring (BTB misfetch, ctx-switch serialization),
//   - the front-of-queue uop's readyAt (front-end pipeline depth).
//
// The skip jumps the clock to the earliest of those, capped so the deadlock
// detector and the watchdog's cycle budget still observe the exact cycle
// numbers they would have seen cycling one by one. Each skipped cycle is
// charged to the same CPI bucket and the same fetch-stall counter as the
// frozen cycle just simulated, so the CPI-stack exact-sum invariant and all
// stall statistics are bit-identical with and without skipping.
//
// The per-cycle hooks take the skipped span in one step, so observing a run
// leaves skipping on. The span stops at the observer's next sample
// boundary; the observer integrates the frozen queue occupancies over it
// and records the boundary's sample at its end. The MSHR sampler adds the
// frozen MSHRs over the span, split at fills that complete inside it. The
// tracer records only at retire and squash, and a skipped span has
// neither. Only WithoutIdleSkip turns skipping off.
func (c *Core) idleSkip(wd *fault.Watchdog, stallLimit uint64) {
	// Never skip past the cycle where the deadlock detector must fire.
	target := c.lastRetireCycle + stallLimit + 1
	if wd != nil && wd.MaxCycles != 0 && wd.MaxCycles < target {
		// ... nor past the watchdog's cycle budget.
		target = wd.MaxCycles
	}
	// c.now is the next cycle to simulate (Cycle() already advanced it), so
	// a wake source equal to c.now means that next cycle makes progress and
	// the skip must collapse to nothing.
	if !c.haltFetched && c.fetchStallTill >= c.now && c.fetchStallTill < target {
		target = c.fetchStallTill
	}
	if c.fqLen() > 0 {
		if ra := c.fqFront().readyAt; ra >= c.now && ra < target {
			target = ra
		}
	}
	if o := c.obsv; o != nil && o.Every != 0 {
		target = min(target, (c.now/o.Every+1)*o.Every)
	}
	// Every outstanding completion event occupies a ring bucket within
	// eventRing cycles of now (far events park at the ring horizon), so a
	// forward scan finds the earliest one.
	scanTo := target
	if horizon := c.now + eventRing; scanTo > horizon {
		scanTo = horizon
	}
	for t := c.now; t < scanTo; t++ {
		if c.events.buckets[t%eventRing].head != 0 {
			target = t
			break
		}
	}
	if target <= c.now {
		return
	}
	n := target - c.now
	c.hier.Tick(c.now, n)
	c.Stats.CPI.AddN(c.lastBucket, n)
	if c.cycStallCtr != nil {
		*c.cycStallCtr += n
	}
	c.now = target
	c.Stats.Cycles += n
	c.Meter.AddCycles(n)
	if o := c.obsv; o != nil {
		o.TickQueues(c.bq.length(), c.vq.length(), c.tq.length(), n)
		if o.Due(target) {
			o.Record(c.intervalCounters(target))
		}
	}
}

// obsTick feeds the attached observer after a cycle's stages have acted:
// per-cycle queue occupancies, and a time-series sample at each boundary.
func (c *Core) obsTick() {
	o := c.obsv
	o.TickQueues(c.bq.length(), c.vq.length(), c.tq.length(), 1)
	if cyc := c.now + 1; o.Due(cyc) {
		o.Record(c.intervalCounters(cyc))
	}
}

// intervalCounters snapshots the cumulative counters the observer turns
// into interval rates. Stall cycles come from the CPI stack, so the series'
// stall fractions agree with the end-of-run attribution by construction.
func (c *Core) intervalCounters(cycle uint64) obs.IntervalCounters {
	_, l1Misses := c.hier.LevelStats(cache.L1)
	return obs.IntervalCounters{
		Cycle:            cycle,
		Retired:          c.Stats.Retired,
		Mispredicts:      c.Stats.Mispredicts,
		FetchStallCycles: c.Stats.CPI.Buckets[stats.CPIFetchStall],
		BQStallCycles:    c.Stats.CPI.Buckets[stats.CPIBQStall],
		TQStallCycles:    c.Stats.CPI.Buckets[stats.CPITQStall],
		CacheMisses:      l1Misses,
	}
}

// FinishObservation flushes the observer's partial final interval. RunCtx
// calls it when the run ends; a further call records nothing.
func (c *Core) FinishObservation() {
	if c.obsv != nil {
		c.obsv.Finish(c.intervalCounters(c.now))
	}
}

// Observer returns the attached observer (nil when observability is off).
func (c *Core) Observer() *obs.Observer { return c.obsv }

// Run executes until HALT retires or maxRetired instructions have retired
// (0 = no limit). It returns ErrLimit if the budget ran out first.
func (c *Core) Run(maxRetired uint64) error {
	return c.RunCtx(context.Background(), maxRetired)
}

// RunCtx is Run with cancellation and watchdog supervision. Abnormal
// conditions — queue ordering violations, watchdog expiry (cycle budget,
// wall-clock deadline, ctx cancellation), retirement deadlock, internal
// invariant breaches — return a *fault.Fault carrying a machine-state
// snapshot; RunCtx never panics on malformed programs.
//
// A run that ends — HALT retired or a fault — flushes the observer's
// partial tail interval before returning, so a faulted time series is
// exactly the clean series truncated at the fault cycle. A run stopped by
// maxRetired (ErrLimit) can continue, so its interval stays open.
// (FinishObservation stays idempotent: no clock advances after the run
// ends, so a later caller-side flush records nothing.)
func (c *Core) RunCtx(ctx context.Context, maxRetired uint64) error {
	err := c.runCtx(ctx, maxRetired)
	if !errors.Is(err, ErrLimit) {
		c.FinishObservation()
	}
	return err
}

func (c *Core) runCtx(ctx context.Context, maxRetired uint64) error {
	wd := c.wd.WithContext(ctx)
	limit := c.stallLimit
	if limit == 0 {
		limit = defaultStallLimit
	}
	skip := !c.idleSkipOff
	c.lastRetireCycle = c.now
	for !c.done {
		if maxRetired != 0 && c.Stats.Retired >= maxRetired {
			return ErrLimit
		}
		if reason, expired := wd.Check(c.now); expired {
			return fault.Wrap(fault.WatchdogExpiry, fmt.Errorf("watchdog: %s", reason), c.snapshot())
		}
		if err := c.Cycle(); err != nil {
			return err
		}
		if skip && c.idle {
			c.idleSkip(wd, limit)
		}
		if c.now-c.lastRetireCycle > limit {
			return fault.Wrap(fault.Deadlock, ErrDeadlock, c.snapshot())
		}
		if c.now&1023 == 0 {
			if err := c.checkInvariants(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Mem returns the committed memory.
func (c *Core) Mem() *mem.Memory { return c.mem }

// Program returns the program the core runs.
func (c *Core) Program() *prog.Program { return c.prog }

// Hierarchy exposes the cache hierarchy for stats.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Done reports whether HALT has retired.
func (c *Core) Done() bool { return c.done }

// freelist helpers.
func (c *Core) freeCount() int { return int(c.flTail - c.flHead) }

// allocPreg takes the next free physical register. It starts not ready and
// with no waiters: any left on it belong to squashed uops (see wakeup.go).
func (c *Core) allocPreg() int32 {
	pr := c.freeRing[c.flHead&c.flMask]
	c.flHead++
	c.prfReady[pr] = false
	c.prfLevel[pr] = cache.NoData
	c.dropWaiters(pr)
	return pr
}

func (c *Core) freePreg(pr int32) {
	c.freeRing[c.flTail&c.flMask] = pr
	c.flTail++
}

// robAt returns the uop at a monotonic rob position.
func (c *Core) robAt(pos uint64) *uop { return &c.rob[pos&c.robMask] }

// bpAt returns the predictor state of the uop at a monotonic rob position.
func (c *Core) bpAt(pos uint64) *bpSlot { return &c.bp[pos&c.robMask] }

// sqAt returns the store-queue entry at a monotonic sq position.
func (c *Core) sqAt(pos uint64) *sqEntry { return &c.sq[pos&c.sqMask] }

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) uint64 {
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p
}

func (c *Core) robCount() int { return int(c.robTail - c.robHead) }
