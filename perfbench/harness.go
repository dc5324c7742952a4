package main

import (
	"sync/atomic"
	"time"

	"meshplace/internal/experiments"
)

// sendTiming is one open-loop request's schedule and outcome times.
type sendTiming struct {
	due, sent, done time.Time
}

// latency is the request's time from when it was due to be sent to when
// its answer arrived: a stall that holds up later sends is charged to
// every request it delays.
func (s sendTiming) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent the request.
func (s sendTiming) lateness() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends len(due) requests on a fixed schedule: request i is due
// at start+due[i], whatever happened to the requests before it. conns
// workers take the requests in order; each waits for its request's due
// time, calls do(i), and takes the next. When every worker is busy, the
// next request is sent late, and the wait counts in its latency. openLoop
// returns once every request has been answered.
func openLoop(start time.Time, due []time.Duration, conns int, do func(i int)) []sendTiming {
	out := make([]sendTiming, len(due))
	var next atomic.Int64
	// Each worker only writes the slots of the indices it took, so the
	// slots need no lock; ForEachIndexed's return orders the writes
	// before the caller reads them.
	_ = experiments.ForEachIndexed(conns, conns, func(int) error {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(due) {
				return nil
			}
			at := start.Add(due[i])
			sleepUntil(at)
			sent := now()
			do(i)
			out[i] = sendTiming{due: at, sent: sent, done: now()}
		}
	})
	return out
}
