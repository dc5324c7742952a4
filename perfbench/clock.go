package main

import "time"

// The benchmark's only wall-clock reads. Everything it times — set-up,
// solves, requests, spans, open-loop pacing — goes through these two
// helpers, so the lint waivers for reading the clock sit here and nowhere
// else.

// now reads the wall clock.
func now() time.Time {
	return time.Now() //wmnlint:allow wallclock — the benchmark measures wall time by definition
}

// sleepUntil blocks until t; it returns at once when t has passed.
func sleepUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		time.Sleep(d) //wmnlint:allow wallclock — open-loop pacing holds each request until its due time
	}
}
