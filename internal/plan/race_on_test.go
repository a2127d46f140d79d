//go:build race

package plan

// raceEnabled reports that this test binary was built with the race
// detector, which instruments allocations and invalidates the
// zero-allocation pins.
const raceEnabled = true
