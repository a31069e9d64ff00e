//go:build !race

package gbt

import "sync"

// scratches recycles the batch kernel's scratch between calls. A collection
// empties it, so between bursts of scoring no scratch stays live.
var scratches = sync.Pool{New: func() any { return new(batchScratch) }}

func getScratch() *batchScratch   { return scratches.Get().(*batchScratch) }
func putScratch(sc *batchScratch) { scratches.Put(sc) }
