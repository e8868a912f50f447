//go:build race

package serve

// The race detector makes sync.Pool drop a random share of the buffers
// put back, so allocation counts through the pool are not repeatable.
func init() { raceEnabled = true }
