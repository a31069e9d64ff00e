package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"octostore/internal/sim"
	"octostore/internal/storage"
)

// TestConcurrentFlushesFenceTheirOwnOps runs several clients that each
// submit stamped creates and then Flush at once: whichever fence the loop
// runs first, every client's Flush must return only after its own creates
// have committed.
func TestConcurrentFlushesFenceTheirOwnOps(t *testing.T) {
	srv, _ := newAccessTestServer(t, 2)
	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				at := sim.Epoch.Add(time.Duration(r*clients+c+1) * time.Millisecond)
				ch := srv.CreateAt(fmt.Sprintf("/fence/c%d/f%03d", c, r), storage.MB, at)
				srv.Flush()
				select {
				case err := <-ch:
					if err != nil {
						t.Errorf("client %d round %d: %v", c, r, err)
					}
				default:
					t.Errorf("client %d round %d: Flush returned before the create committed", c, r)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestShardSet checks the delete follow-up's set of asked shards on both
// sides of its inline word.
func TestShardSet(t *testing.T) {
	var s shardSet
	in := []int{0, 5, 63, 64, 127, 130}
	for _, i := range in {
		s.add(i)
	}
	for i := 0; i < 200; i++ {
		want := false
		for _, j := range in {
			want = want || i == j
		}
		if s.has(i) != want {
			t.Fatalf("has(%d) = %v, want %v", i, s.has(i), want)
		}
	}
}
