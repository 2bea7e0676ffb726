package predictor

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// folded is the scalar reference for one lane of the packed folded
// history: Seznec's circular-shift register compressing the last origLen
// outcomes into compLen bits.
type folded struct {
	comp     uint32
	compLen  uint32
	origLen  uint32
	outPoint uint32
}

func newFolded(origLen, compLen uint32) folded {
	return folded{compLen: compLen, origLen: origLen, outPoint: origLen % compLen}
}

func (f *folded) update(newBit, oldBit uint32) {
	f.comp = f.comp<<1 | newBit
	f.comp ^= oldBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= 1<<f.compLen - 1
}

// branchStream is a seeded mix of branch behaviours for driving ISL-TAGE
// the way the pipeline does: fixed- and variable-trip loops, random
// data-dependent branches and branches correlated with earlier outcomes.
type branchStream struct {
	rng        *rand.Rand
	trip, iter [2]int
	last       [4]bool
}

func newBranchStream(seed int64) *branchStream {
	return &branchStream{rng: rand.New(rand.NewSource(seed)), trip: [2]int{7, 3}}
}

// next returns the next correct-path branch and its outcome.
func (s *branchStream) next() (uint64, bool) {
	switch k := s.rng.Intn(8); {
	case k < 2: // loop back-edges: one fixed trip, one that changes per round
		l := k
		taken := s.iter[l] < s.trip[l]
		s.iter[l]++
		if !taken {
			s.iter[l] = 0
			if l == 1 {
				s.trip[1] = 2 + s.rng.Intn(6)
			}
		}
		return 0x1000 + uint64(l)*0x44, taken
	case k < 4: // random, biased to different degrees
		pc := 0x2000 + uint64(s.rng.Intn(6))*0x10c
		taken := s.rng.Intn(8) < 3+int(pc>>4&3)
		s.last[0], s.last[1], s.last[2], s.last[3] = taken, s.last[0], s.last[1], s.last[2]
		return pc, taken
	default: // correlated with the random branches' recent outcomes
		j := uint64(k - 4)
		return 0x3000 + j*0x58, s.last[j] != s.last[(j+1)&3]
	}
}

// inFlight is a fetched branch waiting to train: its outcome and the
// Lookup filled at fetch.
type inFlight struct {
	pc    uint64
	taken bool
	l     Lookup
}

// driveStream runs n correct-path branches through p in pipeline order:
// snapshot and look up at fetch, push the followed outcome, and train in
// order a few branches later. A misprediction fetches a short wrong path,
// then restores the snapshot, resyncs with OnSquash and pushes the real
// outcome. It reports a digest of every prediction (wrong path included),
// a digest of the captured table indices and tags, the mispredict count,
// and how many correct-path lookups the loop predictor overrode, the
// statistical corrector flipped and a tagged table provided.
func driveStream(p *ISLTAGE, seed int64, n int) (predDigest, idxDigest uint64, mispredicts int, used [3]int) {
	s := newBranchStream(seed)
	wrong := rand.New(rand.NewSource(seed + 1))
	hp, hi := fnv.New64a(), fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		hi.Write(buf[:])
	}
	pred := func(l *Lookup) {
		if l.Pred {
			hp.Write([]byte{1})
		} else {
			hp.Write([]byte{0})
		}
		for t := 0; t < numTables; t++ {
			put(l.indices[t])
			put(uint32(l.tags[t]))
		}
		for _, idx := range l.scIdx {
			put(idx)
		}
		put(uint32(l.scSum))
	}
	const depth = 12
	var q [depth]inFlight
	head, size := 0, 0
	var snap HistSnap
	for i := 0; i < n; i++ {
		pc, taken := s.next()
		if size == depth {
			f := &q[head]
			p.Train(f.pc, &f.l, f.taken)
			head, size = (head+1)%depth, size-1
		}
		f := &q[(head+size)%depth]
		size++
		f.pc, f.taken = pc, taken
		p.Snapshot(&snap)
		p.Lookup(pc, &f.l)
		pred(&f.l)
		if f.l.loopValid {
			used[0]++
		}
		if f.l.usedSC {
			used[1]++
		}
		if f.l.provider >= 0 {
			used[2]++
		}
		if f.l.Pred == taken {
			p.OnFetchOutcome(pc, taken)
			continue
		}
		mispredicts++
		p.OnFetchOutcome(pc, f.l.Pred)
		for j := wrong.Intn(6); j > 0; j-- {
			var wl Lookup
			wpc := 0x1000 + uint64(wrong.Intn(4))<<12 + uint64(wrong.Intn(6))*0x44
			p.Lookup(wpc, &wl)
			pred(&wl)
			p.OnFetchOutcome(wpc, wl.Pred)
		}
		p.Restore(&snap)
		p.OnSquash()
		p.OnFetchOutcome(pc, taken)
	}
	return hp.Sum64(), hi.Sum64(), mispredicts, used
}

// TestISLTAGEStreamPinned pins ISL-TAGE's exact behaviour on a seeded
// stream: every prediction, every captured index and tag, and the
// mispredict count. Host-speed rework of the predictor must leave all
// three unchanged; a deliberate change to the modelled predictor updates
// the constants.
func TestISLTAGEStreamPinned(t *testing.T) {
	const (
		wantPred        = 0x30a603b520f7990c
		wantIdx         = 0x2b997bb08c0b6480
		wantMispredicts = 98069
	)
	// Past 1<<18 trained branches, so usefulness aging runs once.
	gotPred, gotIdx, gotMis, used := driveStream(NewISLTAGE(), 15, 270000)
	if used[0] == 0 || used[1] == 0 || used[2] == 0 {
		t.Fatalf("stream leaves a component idle: loop overrides %d, SC flips %d, tagged providers %d",
			used[0], used[1], used[2])
	}
	if gotPred != wantPred || gotIdx != wantIdx || gotMis != wantMispredicts {
		t.Errorf("stream digests = %#x, %#x, %d mispredicts; want %#x, %#x, %d",
			gotPred, gotIdx, gotMis, uint64(wantPred), uint64(wantIdx), wantMispredicts)
	}
}

// refHist is the scalar reference for ISL-TAGE's speculative history: one
// folded register per (table, lane) and per statistical-corrector fold,
// stepped over an explicit outcome list.
type refHist struct {
	idx, tag1, tag2 [numTables]folded
	sc              [2]folded
	path            uint32
	bits            []uint32
}

func newRefHist() *refHist {
	r := &refHist{}
	for t, n := range tageHistLens {
		r.idx[t] = newFolded(n, tageLogTable)
		r.tag1[t] = newFolded(n, tageTagBits)
		r.tag2[t] = newFolded(n, tageTagBits-1)
	}
	r.sc[0] = newFolded(scHist0, scLogTable)
	r.sc[1] = newFolded(scHist1, scLogTable)
	return r
}

func (r *refHist) push(pc uint64, bit uint32) {
	old := func(n uint32) uint32 {
		if int(n) > len(r.bits) {
			return 0
		}
		return r.bits[len(r.bits)-int(n)]
	}
	for t := range r.idx {
		o := old(r.idx[t].origLen)
		r.idx[t].update(bit, o)
		r.tag1[t].update(bit, o)
		r.tag2[t].update(bit, o)
	}
	for i := range r.sc {
		r.sc[i].update(bit, old(r.sc[i].origLen))
	}
	r.bits = append(r.bits, bit)
	r.path = (r.path<<1 | uint32(pc)&1) & 0xffff
}

func (r *refHist) clone() *refHist {
	c := *r
	c.bits = append([]uint32(nil), r.bits...)
	return &c
}

// check compares p's packed history, and the indices and tags a Lookup
// computes from it, with the scalar reference.
func (r *refHist) check(t *testing.T, step int, p *ISLTAGE, pc uint64) {
	t.Helper()
	for tb := range p.h.fold {
		f := p.h.fold[tb]
		got := [3]uint32{uint32(f >> idxLane & (1<<tageLogTable - 1)), uint32(f >> tag1Lane & (1<<tageTagBits - 1)), uint32(f >> tag2Lane & (1<<(tageTagBits-1) - 1))}
		want := [3]uint32{r.idx[tb].comp, r.tag1[tb].comp, r.tag2[tb].comp}
		if got != want || f&^foldMask != 0 {
			t.Fatalf("step %d table %d (histLen %d): packed fold %#x = lanes %v, want %v", step, tb, tageHistLens[tb], f, got, want)
		}
	}
	if got := [2]uint32{uint32(p.h.sc & (1<<scLogTable - 1)), uint32(p.h.sc >> scLane)}; got != [2]uint32{r.sc[0].comp, r.sc[1].comp} || p.h.sc&^scMask != 0 {
		t.Fatalf("step %d: packed SC folds %#x, want %#x %#x", step, p.h.sc, r.sc[0].comp, r.sc[1].comp)
	}
	var l Lookup
	p.Lookup(pc, &l)
	for tb := 0; tb < numTables; tb++ {
		idx := (uint32(pc) ^ uint32(pc>>2) ^ uint32(pc>>(5+tb)) ^ r.idx[tb].comp ^ (r.path & (1<<min(tageHistLens[tb], 16) - 1))) & (1<<tageLogTable - 1)
		tag := uint16(uint32(pc)^r.tag1[tb].comp^(r.tag2[tb].comp<<1)) & (1<<tageTagBits - 1)
		if l.indices[tb] != idx || l.tags[tb] != tag {
			t.Fatalf("step %d table %d: index/tag %d/%#x, want %d/%#x", step, tb, l.indices[tb], l.tags[tb], idx, tag)
		}
	}
	sc := [3]uint32{uint32(pc), uint32(pc) ^ r.sc[0].comp, uint32(pc>>2) ^ r.sc[1].comp}
	for i := range sc {
		if l.scIdx[i] != sc[i]&(1<<scLogTable-1) {
			t.Fatalf("step %d: SC index %d = %d, want %d", step, i, l.scIdx[i], sc[i]&(1<<scLogTable-1))
		}
	}
}

// TestPackedFoldsMatchScalar steps the packed per-table fold words and the
// packed SC word against scalar folded registers for every table's
// (histLen; 10/12/11) triple and both SC folds, on random outcome streams
// with a snapshot taken mid-stream, polluted and restored, as a
// misprediction does.
func TestPackedFoldsMatchScalar(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, r := NewISLTAGE(), newRefHist()
		var snap HistSnap
		var saved *refHist
		for step := 0; step < 3000; step++ {
			switch {
			case step%700 == 350:
				p.Snapshot(&snap)
				saved = r.clone()
			case step%700 == 500:
				p.Restore(&snap)
				r = saved
			}
			pc := uint64(rng.Int63())
			bit := uint32(rng.Intn(2))
			if seed == 1 && step < 1500 {
				bit = 1 // a long run of ones saturates every lane
			}
			p.OnFetchOutcome(pc, bit == 1)
			r.push(pc, bit)
			r.check(t, step, p, uint64(rng.Int63()))
		}
	}
}

// TestOnSquashResyncsEveryLoopEntry: after any interleaving of fetches,
// retirements and squashes, OnSquash must leave every loop entry with
// specIter == retiredIter, as resyncing the whole table would.
func TestOnSquashResyncsEveryLoopEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := NewISLTAGE()
	// Loop branches spread over the whole table, each with its own trip.
	type loopPC struct {
		pc         uint64
		trip, iter int
	}
	var loops []loopPC
	for i := 0; i < 48; i++ {
		loops = append(loops, loopPC{pc: uint64(i) * 0x2c4, trip: 2 + i%9})
	}
	var q []inFlight
	squashes, hits := 0, 0
	for step := 0; step < 40000; step++ {
		switch k := rng.Intn(16); {
		case k < 9: // fetch
			lp := &loops[rng.Intn(len(loops))]
			taken := lp.iter < lp.trip
			if lp.iter++; !taken {
				lp.iter = 0
			}
			f := inFlight{pc: lp.pc, taken: taken}
			p.Lookup(lp.pc, &f.l)
			if f.l.loopHit {
				hits++
			}
			p.OnFetchOutcome(lp.pc, f.l.Pred)
			q = append(q, f)
		case k < 15: // retire the oldest
			if len(q) > 0 {
				p.Train(q[0].pc, &q[0].l, q[0].taken)
				q = q[1:]
			}
		default: // squash everything still in flight
			q = q[:0]
			p.OnSquash()
			squashes++
			for i := range p.loop {
				if le := &p.loop[i]; le.specIter != le.retiredIter {
					t.Fatalf("step %d: loop entry %d has specIter %d, retiredIter %d after OnSquash",
						step, i, le.specIter, le.retiredIter)
				}
			}
			if p.loopDirty != [len(p.loopDirty)]uint64{} {
				t.Fatalf("step %d: dirty set %x not cleared by OnSquash", step, p.loopDirty)
			}
		}
	}
	if squashes < 1000 || hits < 10000 {
		t.Fatalf("stream too weak: %d squashes, %d loop hits", squashes, hits)
	}
}

// branchBench runs one predicted branch per step the way the pipeline's
// fetch and retire do: Lookup, Snapshot, OnFetchOutcome and Train, with a
// Restore and OnSquash every 8th branch.
type branchBench struct {
	p     *ISLTAGE
	trace []inFlight
	snap  HistSnap
	n     int
}

func newBranchBench() *branchBench {
	b := &branchBench{p: NewISLTAGE()}
	s := newBranchStream(5)
	for i := 0; i < 4096; i++ {
		pc, taken := s.next()
		b.trace = append(b.trace, inFlight{pc: pc, taken: taken})
	}
	return b
}

func (b *branchBench) step() {
	f := &b.trace[b.n%len(b.trace)]
	b.n++
	b.p.Lookup(f.pc, &f.l)
	b.p.Snapshot(&b.snap)
	b.p.OnFetchOutcome(f.pc, f.l.Pred)
	b.p.Train(f.pc, &f.l, f.taken)
	if b.n%8 == 0 {
		b.p.Restore(&b.snap)
		b.p.OnSquash()
	}
}

// BenchmarkISLTAGEBranch is the host cost of one predicted branch.
func BenchmarkISLTAGEBranch(b *testing.B) {
	bb := newBranchBench()
	for i := 0; i < 2*len(bb.trace); i++ { // warm the tables
		bb.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.step()
	}
}

// TestISLTAGESteadyStateZeroAllocs: a predicted branch allocates nothing.
func TestISLTAGESteadyStateZeroAllocs(t *testing.T) {
	bb := newBranchBench()
	if n := testing.AllocsPerRun(5000, bb.step); n != 0 {
		t.Errorf("a predicted branch allocates %.2f times, want 0", n)
	}
}
