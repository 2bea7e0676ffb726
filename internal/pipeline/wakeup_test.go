package pipeline

import (
	"testing"

	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// wakeupCore returns a core whose front end the test feeds by hand,
// holding one renamed NOP for recoveries to anchor at.
func wakeupCore(t *testing.T) *Core {
	t.Helper()
	c, err := New(testConfig(), prog.NewBuilder().Halt().MustBuild(), mem.New())
	if err != nil {
		t.Fatal(err)
	}
	feed(c, isa.Inst{Op: isa.NOP})
	renameAll(t, c)
	return c
}

// feed places in at the front-end queue's tail as fetch would, ready to
// rename this cycle, and returns its rob position.
func feed(c *Core, in isa.Inst) uint64 {
	pos := c.fqTail
	u := c.robAt(pos)
	*u = uop{seq: c.seq, inst: in, pdst: noReg, psrc1: noReg, psrc2: noReg, psrc3: noReg,
		pold: noReg, vqSrcPreg: noReg, bqIdx: -1, tqIdx: -1, vqIdx: -1}
	u.port, u.mulDiv = portFor(in.Op)
	c.fqTail++
	c.seq++
	return pos
}

func add(rd, rs1, rs2 isa.Reg) isa.Inst {
	return isa.Inst{Op: isa.ADD, Rd: rd, Rs1: rs1, Rs2: rs2}
}

func (c *Core) isReady(pos uint64) bool { return c.nextReady(pos) == pos }

func (c *Core) waiterCount(pr int32) int {
	n := 0
	for w := c.waitHead[pr]; w != 0; w = c.waiters[w].next {
		n++
	}
	return n
}

func renameAll(t *testing.T, c *Core) {
	t.Helper()
	if err := c.rename(); err != nil {
		t.Fatal(err)
	}
	if c.fqLen() != 0 {
		t.Fatalf("%d uops left unrenamed", c.fqLen())
	}
}

// TestWakeupIgnoresReusedSlot: a consumer waiting on a register is
// squashed and its rob slot refilled by a younger uop that waits on a
// different register. The old waiter must not wake the new occupant.
func TestWakeupIgnoresReusedSlot(t *testing.T) {
	c := wakeupCore(t)
	p, q := c.allocPreg(), c.allocPreg()
	c.rmt[5], c.rmt[8] = p, q

	cons := feed(c, add(6, 5, isa.Zero)) // waits on p
	renameAll(t, c)
	if u := c.robAt(cons); u.pending != 1 || c.isReady(cons) {
		t.Fatalf("consumer of a not-ready register: pending %d, ready %v", u.pending, c.isReady(cons))
	}
	c.recoverAfter(c.robAt(cons).seq-1, 0)
	if c.iqLen != 0 {
		t.Fatalf("squash left %d uops in the issue queue", c.iqLen)
	}

	reuse := feed(c, add(7, 8, isa.Zero)) // same slot, waits on q
	renameAll(t, c)
	if reuse != cons {
		t.Fatalf("refill took position %d, want the squashed %d", reuse, cons)
	}
	c.markReady(p)
	if u := c.robAt(reuse); u.pending != 1 || c.isReady(reuse) {
		t.Fatalf("stale waiter woke the slot's new uop: pending %d, ready %v", u.pending, c.isReady(reuse))
	}
	c.markReady(q)
	if u := c.robAt(reuse); u.pending != 0 || !c.isReady(reuse) {
		t.Fatalf("own operand did not wake the uop: pending %d, ready %v", u.pending, c.isReady(reuse))
	}
}

// TestWakeupReallocatedRegisterStartsEmpty: recovery squashes a producer
// and its consumer, returning the producer's register to the free list;
// the next rename reallocates that register, which must start with no
// waiters, so only the new consumer waits on it.
func TestWakeupReallocatedRegisterStartsEmpty(t *testing.T) {
	c := wakeupCore(t)
	prod := feed(c, add(5, 1, 2))
	feed(c, add(6, 5, isa.Zero)) // waits on the producer's register
	renameAll(t, c)
	pr := c.robAt(prod).pdst
	if c.waiterCount(pr) != 1 {
		t.Fatalf("producer's register has %d waiters, want 1", c.waiterCount(pr))
	}
	c.recoverAfter(c.robAt(prod).seq-1, 0)

	again := feed(c, add(9, 1, 2))
	renameAll(t, c)
	if got := c.robAt(again).pdst; got != pr {
		t.Fatalf("rename allocated p%d, want the freed p%d", got, pr)
	}
	if n := c.waiterCount(pr); n != 0 {
		t.Fatalf("reallocated register starts with %d waiters, want 0", n)
	}
	cons := feed(c, add(10, 9, isa.Zero))
	renameAll(t, c)
	if n := c.waiterCount(pr); n != 1 {
		t.Fatalf("reallocated register has %d waiters, want 1", n)
	}
	c.markReady(pr)
	if !c.isReady(cons) {
		t.Fatal("the new consumer did not wake")
	}
}

// TestLoadWaitsForOlderStoreAddress: a load whose operands are ready stays
// queued while an older store's address is unresolved, and issues in the
// very cycle the store's base register becomes ready (address generation
// runs at the start of select), before the store itself can issue.
func TestLoadWaitsForOlderStoreAddress(t *testing.T) {
	b := prog.NewBuilder()
	b.Li(1, 0x1000)           // pc 0: load address, ready at once
	b.Li(2, 0x2000)           // pc 1
	b.Li(9, 1)                // pc 2
	b.R(isa.DIV, 3, 2, 9)     // pc 3: store base, ready after a divide
	b.R(isa.DIV, 4, 3, 9)     // pc 4: store data, a divide later still
	b.Store(isa.SD, 4, 3, 0)  // pc 5
	b.Load(isa.LD, 5, 1, 0)   // pc 6
	b.Store(isa.SD, 5, 1, 64) // pc 7: keep the load's value live
	b.Halt()
	c := runBoth(t, testConfig(), b.MustBuild(), nil, WithTraceWindow(0, 64))
	at := map[uint64]TraceEvent{}
	for _, e := range c.Trace() {
		if !e.Squashed {
			at[e.PC] = e
		}
	}
	base, store, load := at[3], at[5], at[6]
	if load.IssueAt <= load.RenameAt+1 {
		t.Fatalf("load issued at %d, right after rename at %d: it did not wait for the store's address",
			load.IssueAt, load.RenameAt)
	}
	if load.IssueAt != base.DoneAt {
		t.Errorf("load issued at %d, want %d, the cycle the store's base became ready", load.IssueAt, base.DoneAt)
	}
	if store.IssueAt <= load.IssueAt {
		t.Errorf("store issued at %d, not after the load at %d: the test no longer isolates address resolution",
			store.IssueAt, load.IssueAt)
	}
}
