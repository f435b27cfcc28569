package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Row is one run's measurement, as -json writes it.
type Row struct {
	Label        string  `json:"label"`
	Proto        string  `json:"proto"`
	Mech         string  `json:"mech"`
	TTL          int     `json:"ttl"`
	Zipf         float64 `json:"zipf"`
	Conns        int     `json:"conns"`
	Seed         int64   `json:"seed"`
	Objects      int     `json:"objects"`
	Queries      int     `json:"queries"`
	OK           int     `json:"ok"`
	Shed         int     `json:"shed"`
	RateLimited  int     `json:"rate_limited"`
	Errors       int     `json:"errors"`
	WallSeconds  float64 `json:"wall_seconds"`
	QPS          float64 `json:"qps"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	FoundRate    float64 `json:"found_rate"`
	// Verified counts answers cross-checked bit-identical against a
	// -verify-against recording (0 when verification was not requested).
	Verified int `json:"verified,omitempty"`
}

func rowName(r Row) string {
	if r.Label != "" {
		return r.Label
	}
	return fmt.Sprintf("%s/%s", r.Proto, r.Mech)
}

func (res *result) row(label, proto, mech string, ttl int, zipf float64, conns int, seed int64, objects int) Row {
	pct := func(q float64) float64 {
		if len(res.latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(res.latencies)))
		if i >= len(res.latencies) {
			i = len(res.latencies) - 1
		}
		return float64(res.latencies[i]) / float64(time.Millisecond)
	}
	row := Row{
		Label: label, Proto: proto, Mech: mech, TTL: ttl, Zipf: zipf,
		Conns: conns, Seed: seed, Objects: objects,
		Queries: res.ok + res.shed + res.limited + res.errors,
		OK:      res.ok, Shed: res.shed, RateLimited: res.limited, Errors: res.errors,
		WallSeconds: res.wall.Seconds(),
		P50Ms:       pct(0.50), P99Ms: pct(0.99), P999Ms: pct(0.999),
	}
	if row.WallSeconds > 0 {
		row.QPS = float64(res.ok) / row.WallSeconds
	}
	if res.ok > 0 {
		row.CacheHitRate = float64(res.hits) / float64(res.ok)
		row.FoundRate = float64(res.found) / float64(res.ok)
	}
	return row
}

// Report is the -json document: a generated stamp plus this run's row.
type Report struct {
	Generated string `json:"generated"`
	Rows      []Row  `json:"rows"`
}

// failed is the exit-code rule: a run whose requests drew error
// replies, or of which not one was accepted, did not measure the
// serving stack. Shed and rate-limited requests are legitimate
// outcomes of an overloaded daemon and do not fail the run.
func (r Row) failed() bool {
	return r.Errors > 0 || r.OK == 0
}

// writeJSON writes v as indented JSON, through a temporary file so a
// reader never sees a partial document.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
