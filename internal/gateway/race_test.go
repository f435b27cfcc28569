//go:build race

package gateway

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back on purpose, so allocation counts do not hold.
const raceEnabled = true
