//go:build race

package sgprs_test

// raceEnabled reports a -race build. The race detector allocates on its
// own, so TestWorkGate skips its allocation budgets there and checks only
// the work counters.
const raceEnabled = true
