package main

import "time"

// clock is the generator's time source: nanoseconds since the run
// started, monotonic. Tests substitute a fake to inject stalls.
type clock interface {
	now() int64
	sleepUntil(t int64)
}

// wallClock is the real clock. It also maps the daemons' wall-clock At
// stamps onto its own time line (all processes share the host clock).
type wallClock struct {
	base     time.Time
	baseWall int64
}

func newWallClock() *wallClock {
	t := time.Now()
	return &wallClock{base: t, baseWall: t.UnixNano()}
}

func (c *wallClock) now() int64 { return int64(time.Since(c.base)) }

func (c *wallClock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func (c *wallClock) fromWall(t time.Time) int64 { return t.UnixNano() - c.baseWall }

// openLoop calls send for frames 0..frames-1, each due at
// start + i*period. Due times never move: a send that blocks, or a stall
// of the generator itself, makes later sends late, and their latency is
// still measured from when they were due, so queueing behind the stall
// is counted (no coordinated omission). It returns how late each send
// left against its due time.
func openLoop(clk clock, start int64, period float64, frames int, send func(i int, due int64)) []int64 {
	lags := make([]int64, frames)
	for i := 0; i < frames; i++ {
		due := start + int64(float64(i)*period)
		clk.sleepUntil(due)
		lags[i] = clk.now() - due
		send(i, due)
	}
	return lags
}
