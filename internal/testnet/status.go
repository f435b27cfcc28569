// Package testnet launches and supervises multi-process Makalu
// networks: hundreds of real makalu-node processes on one machine,
// speaking real TCP, driven through staged kill waves and deny-list
// partitions, with per-node metrics scraped from the status snapshots
// each process writes. It is the bridge from peer.MassFailure (the
// same decisions, in virtual time in one process) to production claims:
// here every node is its own OS process with its own sockets, its own
// GC, and its own death semantics (SIGKILL really is a silent crash).
package testnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"makalu/internal/obs"
)

// NodeStatus is the snapshot document one makalu-node process writes
// at -metrics-json: identity, overlay view, and the obs registry. The
// file is replaced atomically (write temp + rename), so a scraper
// never reads a torn document; the embedded timestamp is the node's
// own clock at write time, which the harness uses to bound eviction
// latencies without trusting scrape timing.
type NodeStatus struct {
	Addr             string              `json:"addr"`
	PID              int                 `json:"pid"`
	Seed             int64               `json:"seed"`
	TimeUnixNano     int64               `json:"time_unix_ns"`
	Degree           int                 `json:"degree"`
	Neighbors        []string            `json:"neighbors"`
	QueriesForwarded uint64              `json:"queries_forwarded"`
	Evictions        uint64              `json:"evictions"`
	Final            bool                `json:"final"` // written on the way out (signal or -run expiry)
	Metrics          obs.MetricsSnapshot `json:"metrics"`
}

// WriteNodeStatus writes the status document atomically: marshal to a
// temp file in the same directory, then rename over the target. A
// SIGKILL between snapshots leaves the previous complete document in
// place, never a partial one.
func WriteNodeStatus(path string, st NodeStatus) error {
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".status-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(out)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	return os.Rename(tmp.Name(), path)
}

// ReadNodeStatus parses one status snapshot.
func ReadNodeStatus(path string) (NodeStatus, error) {
	var st NodeStatus
	data, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("testnet: %s: %w", path, err)
	}
	return st, nil
}
