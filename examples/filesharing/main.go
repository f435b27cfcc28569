// Filesharing: drive a Makalu overlay with a synthetic Gnutella-style
// query trace (Poisson arrivals at the measured 2006 rate, Zipf object
// popularity) and compare the resulting traffic against the measured
// Gnutella ultrapeer figures — the workload behind the paper's
// Table 2. Then go beyond queries: download an actual object in
// chunks from live peer processes, surviving the death of a replica
// that is actively serving it.
//
//	go run ./examples/filesharing
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"makalu"
	"makalu/internal/content"
	"makalu/internal/trace"
	"makalu/peer"
)

func main() {
	const n = 5000
	ov, err := makalu.New(makalu.Config{Nodes: n, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Worst-case content population: every object exists on exactly
	// one node (replication 0 floors to a single copy).
	catalogSize := 200
	content, err := ov.PlaceContent(catalogSize, 0)
	if err != nil {
		log.Fatal(err)
	}

	// A two-minute synthetic trace at the 2006 incoming query rate,
	// with Zipf-skewed popularity as real file-sharing traces show.
	profile := trace.Gnutella2006()
	events, err := trace.GenerateStream(trace.StreamConfig{
		Duration: 120,
		Rate:     profile.QueriesPerSecond,
		Objects:  catalogSize,
		ZipfExp:  1.3,
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %d queries (%.2f q/s) over a %d-node Makalu overlay\n",
		len(events), profile.QueriesPerSecond, n)

	rng := rand.New(rand.NewSource(13))
	const ttl = 5
	found, messages := 0, 0
	for _, ev := range events {
		obj := content.Objects()[ev.Object]
		res := ov.Flood(rng.Intn(n), ttl, content.Matcher(obj))
		if res.Found {
			found++
		}
		messages += res.Messages
	}
	successRate := float64(found) / float64(len(events))
	fmt.Printf("flooding TTL %d, 1 replica/object: success %.1f%%, %.0f msgs/query network-wide\n",
		ttl, 100*successRate, float64(messages)/float64(len(events)))

	// Table 2 perspective: per-node outgoing load under the measured
	// incoming query rate. A Makalu node forwards each query to
	// (degree - 1) neighbors; the measured 2006 ultrapeer forwarded
	// to 38.4.
	rows := trace.Table2(profile, ov.MeanDegree()-1, successRate, ov.MeanDegree())
	fmt.Printf("\n%-26s %14s %10s\n", "", rows[0].System, rows[1].System)
	fmt.Printf("%-26s %14.2f %10.2f\n", "outgoing msgs/query", rows[0].MsgsPerQuery, rows[1].MsgsPerQuery)
	fmt.Printf("%-26s %14.2f %10.2f\n", "outgoing msgs/second", rows[0].MsgsPerSecond, rows[1].MsgsPerSecond)
	fmt.Printf("%-26s %13.1fk %9.2fk\n", "outgoing bandwidth (bps)", rows[0].OutgoingKbps, rows[1].OutgoingKbps)
	fmt.Printf("%-26s %13.1f%% %9.1f%%\n", "query success rate", 100*rows[0].SuccessRate, 100*rows[1].SuccessRate)
	fmt.Printf("%-26s %14.1f %10.2f\n", "neighbors per node", rows[0].NeighborsRequired, rows[1].NeighborsRequired)

	liveDownload()
}

// liveDownload is the chunked-transfer demo on real TCP peers: a
// 512 KiB object in 64 KiB chunks on three replicas, one of which is
// crash-killed (no FIN) after it serves a chunk — the download
// finishes from the survivors via the timeout/re-request path.
func liveDownload() {
	const (
		obj   = uint64(0xf11e)
		size  = int64(512 << 10)
		chunk = 64 << 10
	)
	man, err := content.BuildManifest(obj, size, chunk)
	if err != nil {
		log.Fatal(err)
	}
	payload := content.ObjectPayload(obj, size, chunk)

	client, err := peer.Start("127.0.0.1:0", peer.DefaultNodeConfig(8, 1))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	var replicas []*peer.Node
	for i := 0; i < 3; i++ {
		r, err := peer.Start("127.0.0.1:0", peer.DefaultNodeConfig(8, int64(i+2)))
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		r.AddBlob(obj, payload)
		if err := client.Connect(r.Addr()); err != nil {
			log.Fatal(err)
		}
		replicas = append(replicas, r)
	}

	victim := replicas[0]
	sources := []string{replicas[0].Addr(), replicas[1].Addr(), replicas[2].Addr()}
	fmt.Printf("\nstreaming %d KiB (%d chunks) from %d replicas; killing %s mid-transfer\n",
		size>>10, man.NumChunks(), len(replicas), victim.Addr())

	var once sync.Once
	// One request per source at a time, so the victim still owes a
	// chunk when it dies: at the default window of 4 per source, all 8
	// chunks would be in flight before the kill.
	got, stats, err := client.DownloadBlob(man, sources, peer.DownloadConfig{
		Window: 1,
		OnChunk: func(c int, from string) {
			if from == victim.Addr() {
				once.Do(victim.Kill) // crash: no FIN, sockets left dangling
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("downloaded payload differs from original")
	}
	fmt.Printf("download completed: %d bytes in %v (ttfb %v), %d re-requests, %d sources dropped\n",
		stats.Bytes, stats.Elapsed.Round(1e6), stats.TTFB, stats.ReRequests, stats.SourcesDropped)
}
