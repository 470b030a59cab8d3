//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random quarter of what is put back, so a run may
// find the predictor-bank pool empty.
const raceEnabled = true
