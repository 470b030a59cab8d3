//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a scheduler CPU set with room for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the process may run on (nil if unknown).
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pinThreads restricts every thread of the process to cpus. Threads
// started later inherit the set from the thread that starts them.
func pinThreads(cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
			return errno
		}
	}
	return nil
}
