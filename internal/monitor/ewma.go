package monitor

import "math"

// ewma tracks an exponentially-weighted moving average of a counter's
// per-second rate: each observation of the counter contributes its
// interval rate weighted by how much of the half-life the interval
// covers, so an idle source's rate halves every half-life and a burst
// shows up within one or two collections instead of being averaged
// over the whole run.
type ewma struct {
	rate float64
	prev float64 // last counter value
	seen bool
}

// observe feeds one counter reading dt seconds after the previous one
// and returns the smoothed per-second rate. halfLife <= 0 degenerates
// to the instantaneous interval rate.
func (e *ewma) observe(value, dt, halfLife float64) float64 {
	if !e.seen {
		e.prev, e.seen = value, true
		return 0
	}
	if dt <= 0 {
		return e.rate
	}
	delta := value - e.prev
	if delta < 0 {
		delta = 0 // counter reset (component restarted)
	}
	e.prev = value
	inst := delta / dt
	if halfLife <= 0 {
		e.rate = inst
		return e.rate
	}
	// alpha is the weight of the newest interval: 1 - 2^(-dt/halfLife),
	// so a sample one half-life after the last fully replaces half of
	// the history regardless of collection cadence.
	alpha := 1 - math.Exp2(-dt/halfLife)
	e.rate += alpha * (inst - e.rate)
	return e.rate
}
