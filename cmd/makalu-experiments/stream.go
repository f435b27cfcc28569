package main

import (
	"fmt"
	"time"

	"makalu/internal/experiments"
	"makalu/internal/obs"
)

// runStream executes the chunked-streaming sweep (-exp stream) and
// prints the table.
func runStream(n int, seed int64, transfers int, reg *obs.Registry) error {
	opt := experiments.DefaultStreamOptions(n, seed)
	if transfers > 0 {
		opt.Transfers = transfers
	}
	opt.Obs = reg
	start := time.Now()
	res, err := experiments.RunStream(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	fmt.Printf("[stream completed in %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}
