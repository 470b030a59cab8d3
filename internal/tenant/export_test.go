package tenant

// ReplayReference exposes the per-record reference replay to the
// package's external tests.
var ReplayReference = replayReference
