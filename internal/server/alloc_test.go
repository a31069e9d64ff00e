package server

import "testing"

// cycleAllocs is what one create → Flush → delete → Flush cycle on
// cycleServer allocates: each outcome channel is two objects (a buffered
// channel of an interface type keeps its buffer apart from the channel),
// plus the file's metadata (dfs's fileObj) and its namespace handle. The
// commands, the flushes, the write's plane grants, transfers and barriers,
// and the tracker record the file's slot already held allocate nothing.
const cycleAllocs = 6

// TestCreateDeleteCycleAllocs holds the write path to cycleAllocs, so a
// closure or a per-op object that creeps back onto it fails here.
func TestCreateDeleteCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cycle := cycleServer(t)
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := cycle(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > cycleAllocs {
		t.Fatalf("a create → Flush → delete → Flush cycle allocates %v objects, want at most %d", allocs, cycleAllocs)
	}
}
