package pipeline

import (
	"cfd/internal/obs"
)

// Perfetto trace rows: one process for the core, one thread per pipeline
// stage. Each traced instruction contributes a span per stage it occupied,
// so the classic Pipeview diagram becomes a zoomable Gantt chart in
// ui.perfetto.dev / chrome://tracing.
const (
	tracePID   = 1
	tidFetch   = 1 // fetch → rename (front-end queue)
	tidRename  = 2 // rename/dispatch → issue (waiting in the IQ)
	tidExecute = 3 // issue → completion (execution lanes, memory)
	tidCommit  = 4 // completion → retirement (ROB wait)
)

// PerfettoTrace renders the collected pipeline trace (WithTraceWindow) as
// a Chrome/Perfetto trace: stage spans per traced instruction, plus counter
// tracks (IPC, queue occupancy, stall fractions) from the attached
// observer's time series when sampling was enabled.
// One trace timestamp unit corresponds to one simulated cycle.
func (c *Core) PerfettoTrace() *obs.Trace {
	tr := obs.NewTrace()
	tr.NameProcess(tracePID, "cfd pipeline core")
	tr.NameThread(tracePID, tidFetch, "fetch")
	tr.NameThread(tracePID, tidRename, "rename/dispatch")
	tr.NameThread(tracePID, tidExecute, "issue/execute")
	tr.NameThread(tracePID, tidCommit, "complete/retire")

	for _, e := range c.Trace() {
		cat := "inst"
		if e.Squashed {
			cat = "squashed"
		}
		args := map[string]interface{}{"seq": e.Seq, "pc": e.PC}
		if e.Mispredict {
			args["mispredict"] = true
		}
		span := func(tid int, from, to uint64) {
			if to < from {
				to = from
			}
			tr.Span(tracePID, tid, e.Inst, cat, from, to-from, args)
		}
		end := e.RetireAt
		switch {
		case e.RenameAt == 0: // squashed before rename: fetch only
			span(tidFetch, e.FetchAt, end)
		case e.IssueAt == 0: // never issued (squashed in the window)
			span(tidFetch, e.FetchAt, e.RenameAt)
			span(tidRename, e.RenameAt, end)
		default:
			span(tidFetch, e.FetchAt, e.RenameAt)
			span(tidRename, e.RenameAt, e.IssueAt)
			span(tidExecute, e.IssueAt, e.DoneAt)
			span(tidCommit, e.DoneAt, end)
		}
	}

	if o := c.obsv; o != nil {
		for _, s := range o.Samples {
			tr.Counter(tracePID, "ipc", s.Cycle, map[string]interface{}{"ipc": s.IPC})
			tr.Counter(tracePID, "queue occupancy", s.Cycle, map[string]interface{}{
				"bq": s.BQOcc, "vq": s.VQOcc, "tq": s.TQOcc,
			})
			tr.Counter(tracePID, "stall fraction", s.Cycle, map[string]interface{}{
				"fetch": s.FetchStall, "bq": s.BQStall, "tq": s.TQStall,
			})
		}
	}
	return tr
}
