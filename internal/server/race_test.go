//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates.
const raceEnabled = true
