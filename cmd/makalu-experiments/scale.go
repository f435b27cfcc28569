package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"makalu/internal/experiments"
)

// runScale drives the -exp scale sweep: parse the size list, run the
// build+analysis at each size, and optionally write the JSON record.
func runScale(sizeList string, landmarks int, seed int64, jsonPath string) (*experiments.ScaleResult, error) {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("-scale-sizes: %q is not an integer", f)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-scale-sizes: no sizes given")
	}
	res, err := experiments.RunScale(sizes, landmarks, seed)
	if err != nil || jsonPath == "" {
		return res, err
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(res)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("[scale report written to %s]\n", jsonPath)
	return res, nil
}
