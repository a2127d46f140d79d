//go:build !race

package plan

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
