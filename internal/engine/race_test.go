//go:build race

package engine

// raceEnabled reports whether the race detector instruments this test
// binary, which changes allocation behaviour.
const raceEnabled = true
