package qdisc

import (
	"syscall"
	"time"
)

// nanosleep blocks the calling thread for d, waking within the kernel's
// timer slack (50 µs by default) where time.Sleep can be a millisecond late.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
