package pipeline

// eventRing is the completion wheel's bucket count; it must exceed the
// longest normal operation latency including MSHR queueing.
const eventRing = 1 << 14

// completion is one scheduled completion event: a node in its bucket's
// list.
type completion struct {
	robPos uint64
	seq    uint64
	at     uint64
	next   int32 // next node in the bucket (0 = end)
}

// wheel holds the completion events: eventRing FIFO buckets indexed by
// cycle. Events farther out than the ring (rare: deeply queued misses)
// park in the horizon bucket and reschedule. The buckets are linked lists
// threaded through one grow-only node pool with a free list, so scheduling
// allocates only while the pool grows to the most events ever in flight.
// Node 0 is unused, so a zero index ends a list and marks an empty bucket.
type wheel struct {
	buckets []bucket
	nodes   []completion
	free    int32 // free-list head (0 = empty)
}

type bucket struct{ head, tail int32 }

// newWheel returns an empty wheel whose pool starts with room for n events.
func newWheel(n int) wheel {
	return wheel{buckets: make([]bucket, eventRing), nodes: make([]completion, 1, n+1)}
}

// push appends ev to bucket b, in a free node or a new one.
func (w *wheel) push(b uint64, ev completion) {
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n] = ev
	} else {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, ev)
	}
	w.link(b, n)
}

// link appends node n to the end of bucket b.
func (w *wheel) link(b uint64, n int32) {
	w.nodes[n].next = 0
	bk := &w.buckets[b]
	if bk.tail == 0 {
		bk.head = n
	} else {
		w.nodes[bk.tail].next = n
	}
	bk.tail = n
}

// take empties bucket b and returns the first node of its list.
func (w *wheel) take(b uint64) int32 {
	n := w.buckets[b].head
	w.buckets[b] = bucket{}
	return n
}

// release returns node n to the free list.
func (w *wheel) release(n int32) {
	w.nodes[n].next = w.free
	w.free = n
}

// schedule adds a completion event for the uop at robPos, due at cycle at.
func (c *Core) schedule(at, robPos, seq uint64) {
	c.events.push(c.bucketFor(at), completion{robPos: robPos, seq: seq, at: at})
}

// bucketFor returns the bucket of an event due at cycle at: that cycle's,
// or the horizon's (the last cycle the ring reaches) when at is farther out.
func (c *Core) bucketFor(at uint64) uint64 {
	if at-c.now >= eventRing {
		at = c.now + eventRing - 1
	}
	return at % eventRing
}
