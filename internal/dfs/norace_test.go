//go:build !race

package dfs

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates.
const raceEnabled = false
