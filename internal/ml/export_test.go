package ml

import "sync"

// holdUpdates makes the trainings of l stop on their goroutine before they
// start, until release is called; started receives when the first one has
// reached the hold. release may be called more than once.
func holdUpdates(l *Learner) (started <-chan struct{}, release func()) {
	gate, reached := make(chan struct{}), make(chan struct{}, 1)
	l.hold = func() {
		select {
		case reached <- struct{}{}:
		default:
		}
		<-gate
	}
	var once sync.Once
	return reached, func() { once.Do(func() { close(gate) }) }
}
