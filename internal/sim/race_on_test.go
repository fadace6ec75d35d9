//go:build race

package sim

// raceEnabled reports whether this test binary was built with -race;
// allocation-budget tests skip themselves under the detector, whose
// instrumentation allocates.
const raceEnabled = true
