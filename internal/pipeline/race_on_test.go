//go:build race

package pipeline

const raceEnabled = true
