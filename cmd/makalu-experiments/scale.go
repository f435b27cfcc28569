package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"makalu/internal/experiments"
)

// runScale drives the -exp scale sweep: parse the size list, run the
// build+analysis at each size, print the table, and optionally write
// the JSON record.
func runScale(sizeList string, landmarks int, seed int64, jsonPath string) error {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("-scale-sizes: %q is not an integer", f)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("-scale-sizes: no sizes given")
	}
	start := time.Now()
	res, err := experiments.RunScale(sizes, landmarks, seed)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	fmt.Printf("[scale completed in %v]\n", time.Since(start).Round(time.Millisecond))
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("[scale report written to %s]\n", jsonPath)
	return nil
}
