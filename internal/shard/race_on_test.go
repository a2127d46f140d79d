//go:build race

package shard_test

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation (and sync.Pool randomization) adds
// allocations the zero-alloc pins must not count.
const raceEnabled = true
