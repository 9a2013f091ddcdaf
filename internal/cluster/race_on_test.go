//go:build race

package cluster

// raceEnabled reports whether this test binary carries race-detector
// instrumentation, which slows CPU-bound paths ~10x and invalidates
// wall-clock performance assertions.
const raceEnabled = true
