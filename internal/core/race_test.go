//go:build race

package core_test

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops a random quarter of the values put into it.
const raceEnabled = true
