//go:build !linux

package qdisc

import "time"

// nanosleep falls back to time.Sleep where no precise sleep is wired up.
func nanosleep(d time.Duration) { time.Sleep(d) }
