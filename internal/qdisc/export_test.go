package qdisc

import "time"

// The idle step's test seam: ServeOptions.idle replaces the bounds and the
// sleeper a fleet's workers use, and idleServer lets a test drive one idle
// step by hand under its own clock and sleeper.

// hourIdling keeps a floor but sets every upper bound to an hour: past its
// floor, a parked worker wakes only when its doorbell rings.
func hourIdling(floor time.Duration) *idling {
	return &idling{floor: floor, cap: time.Hour, bell: time.Hour,
		sleeper: func() sleeper { return preciseFloor{newWallSleeper()} }}
}

// preciseFloor is the wall sleeper with its floor park on nanosleep, so a
// round of a doorbell test costs the floor, not the Go timer's
// millisecond. A ring during the floor is left for the park's disarm to
// collect, so the doorbell protocol exercised is the same.
type preciseFloor struct{ sleeper }

func (p preciseFloor) wait(bell <-chan struct{}, d time.Duration) bool {
	if d >= time.Second {
		return p.sleeper.wait(bell, d)
	}
	nanosleep(d)
	return false
}

// sleepCall is one recorded sleep: a nap of d, or a wait bounded by d.
type sleepCall struct {
	kind string
	d    time.Duration
}

// sleepRec records sleeps instead of sleeping; no doorbell wait is rung.
// Fixed storage, so recording allocates nothing.
type sleepRec struct {
	calls [4]sleepCall
	n     int
}

func (r *sleepRec) note(kind string, d time.Duration) {
	if r.n < len(r.calls) {
		r.calls[r.n] = sleepCall{kind, d}
	}
	r.n++
}

func (r *sleepRec) nap(d time.Duration) { r.note("nap", d) }

func (r *sleepRec) wait(_ <-chan struct{}, d time.Duration) bool {
	r.note("wait", d)
	return false
}

func (r *sleepRec) got() []sleepCall { return r.calls[:min(r.n, len(r.calls))] }

// idleServer is a Server over f with the runtime's idle bounds and clock
// that runs no workers: the caller takes idle steps itself.
func idleServer(f *Front, clock func() int64) *Server {
	return &Server{f: f, clock: clock, opt: ServeOptions{}.withDefaults(),
		groups: make([]serverGroup, f.NumGroups())}
}
