package main

import (
	"fmt"
	"os"
)

// rotation moves a one-P workload from CPU to CPU between repeats. On
// the 2-vCPU host the benchmark is sized for, one vCPU at a time is
// often slowed by a neighbour on its hyperthread sibling, for longer
// than a run; a run that stayed on it read up to 45% slow even on its
// fastest repeats. Taking each item's fastest repeat over every CPU
// measures the code, not where the scheduler put it.
type rotation struct {
	cpus []int
	next int
}

func newRotation() *rotation { return &rotation{cpus: allowedCPUs()} }

// turn pins the process to the next CPU.
func (r *rotation) turn() {
	if len(r.cpus) < 2 {
		return
	}
	if err := pinThreads(r.cpus[r.next%len(r.cpus) : r.next%len(r.cpus)+1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU rotation off:", err)
		r.cpus = nil
		return
	}
	r.next++
}

// release lets the process run on every CPU it started with.
func (r *rotation) release() {
	if len(r.cpus) >= 2 {
		if err := pinThreads(r.cpus); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: releasing CPU rotation:", err)
		}
	}
}
