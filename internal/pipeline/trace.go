package pipeline

import (
	"fmt"
	"strings"
)

// TraceEvent records one instruction's flow through the pipeline stages.
type TraceEvent struct {
	Seq        uint64
	PC         uint64
	Inst       string
	FetchAt    uint64
	RenameAt   uint64
	IssueAt    uint64
	DoneAt     uint64
	RetireAt   uint64
	Squashed   bool
	Mispredict bool
}

// tracer collects stage timestamps for a window of the instruction stream:
// skip instructions pass uncaptured, then limit instructions are recorded.
type tracer struct {
	skip   int
	limit  int
	events []TraceEvent
}

// WithTraceWindow enables pipeline tracing for limit instructions starting
// after the first start instructions have left the pipeline (retired or
// squashed, so squashed ones are traced too). Start 0 traces from the first
// instruction; a later start captures steady-state behaviour instead of
// only warm-up. Render the result with Pipeview or PerfettoTrace.
func WithTraceWindow(start, limit int) Option {
	return func(c *Core) { c.trace = &tracer{skip: start, limit: limit} }
}

func (c *Core) traceRecord(u *uop) {
	if c.trace == nil || len(c.trace.events) >= c.trace.limit {
		return
	}
	if c.trace.skip > 0 {
		c.trace.skip--
		return
	}
	c.trace.events = append(c.trace.events, TraceEvent{
		Seq:        u.seq,
		PC:         u.pc,
		Inst:       u.inst.String(),
		FetchAt:    u.fetchAt,
		RenameAt:   u.renameAt,
		IssueAt:    u.issueAt,
		DoneAt:     u.doneAt,
		RetireAt:   c.now,
		Squashed:   u.squashed,
		Mispredict: u.mispredict,
	})
}

// Trace returns the collected events.
func (c *Core) Trace() []TraceEvent {
	if c.trace == nil {
		return nil
	}
	return c.trace.events
}

// Pipeview renders the collected trace as a classic textual pipeline
// diagram: one row per instruction, one column per cycle, with stage
// letters F (fetch), R (rename/dispatch), I (issue/execute), C (complete),
// X (retire), and 'x' marking squashed instructions.
func (c *Core) Pipeview() string {
	evs := c.Trace()
	if len(evs) == 0 {
		return "(no trace; construct the core with WithTraceWindow)\n"
	}
	base := evs[0].FetchAt
	var last uint64
	for _, e := range evs {
		if e.RetireAt > last {
			last = e.RetireAt
		}
	}
	width := int(last-base) + 1
	if width > 160 {
		width = 160
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycle origin %d, one column per cycle\n", base)
	for _, e := range evs {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		put := func(at uint64, ch byte) {
			if at >= base && int(at-base) < width {
				if row[at-base] == '.' {
					row[at-base] = ch
				}
			}
		}
		put(e.RetireAt, 'X')
		put(e.DoneAt, 'C')
		put(e.IssueAt, 'I')
		put(e.RenameAt, 'R')
		put(e.FetchAt, 'F')
		mark := ' '
		if e.Squashed {
			mark = 'x'
		}
		fmt.Fprintf(&b, "%5d %c %-22s |%s|\n", e.Seq, mark, truncate(e.Inst, 22), row)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
