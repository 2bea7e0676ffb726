//go:build !race

package pipeline

// raceEnabled reports whether the race detector is instrumenting this
// build. Under it sync.Pool drops a random share of what is put back, so
// a recycled core's allocation count is not fixed.
const raceEnabled = false
