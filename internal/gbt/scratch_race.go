//go:build race

package gbt

// Under the race detector a sync.Pool drops a random quarter of what it is
// given, and the checks that a steady stream of batches allocates nothing
// would fail there. A race build keeps finished calls' scratch in a free list
// instead, with room for more than the goroutines that score at once in a
// system: the caller's and its two learners' updates.
var scratches = make(chan *batchScratch, 4)

func getScratch() *batchScratch {
	select {
	case sc := <-scratches:
		return sc
	default:
		return new(batchScratch)
	}
}

func putScratch(sc *batchScratch) {
	select {
	case scratches <- sc:
	default:
	}
}
