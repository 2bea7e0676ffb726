package harness

import "cfd/internal/obs"

// RegisterMetrics registers the Runner's cache counters as pull-based
// probes. No-op on a nil registry.
func (r *Runner) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterProbe("harness.lookups", obs.ProbeFunc(func() float64 { return float64(r.lookups.Load()) }))
	reg.RegisterProbe("harness.simulations", obs.ProbeFunc(func() float64 { return float64(r.simulations.Load()) }))
	reg.RegisterProbe("harness.cache_hits", obs.ProbeFunc(func() float64 { return float64(r.cacheHits.Load()) }))
}
