//go:build !linux

package main

// allowedCPUs is unknown off Linux, which turns CPU rotation off.
func allowedCPUs() []int { return nil }

func pinThreads([]int) error { return nil }
