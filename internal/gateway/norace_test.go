//go:build !race

package gateway

const raceEnabled = false
