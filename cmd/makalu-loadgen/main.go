// Command makalu-loadgen drives a makalu-node service-mode daemon with
// a Zipf query workload (the trace model's popularity skew) and
// measures what the serving stack sustains: QPS, exact client-side
// p50/p99/p999 latency, cache hit rate, and the shed/rate-limit
// counts. -json writes the run's row; the exit status is non-zero when
// any request drew an error reply or none was accepted.
//
// The object catalog always comes from the daemon's HTTP /objects
// endpoint; the load itself goes over HTTP (-proto http) or the raw
// TCP line protocol (-proto tcp, the low-overhead path).
//
// Both -http and -tcp accept comma-separated address lists; worker w
// drives target w mod len(targets), so a replicated tier can be loaded
// either through the gateway (one address) or spread directly over the
// backends (N addresses — the no-affinity comparison point).
//
// -verify-out records every accepted answer (found, hop, messages,
// visited) per object; -verify-against replays a recorded file and
// fails on any bit-level mismatch — the purity check that a gateway,
// any backend replica, and a single direct daemon all serve identical
// results.
//
// Usage:
//
//	makalu-node -serve-http 127.0.0.1:8080 -serve-tcp 127.0.0.1:8081 &
//	makalu-loadgen -http 127.0.0.1:8080 -tcp 127.0.0.1:8081 -proto tcp \
//	    -queries 50000 -zipf 1.2 -label cache-on -json /tmp/serve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"makalu/internal/serve"
	"makalu/internal/trace"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8080", "daemon HTTP address(es), comma-separated (catalog from the first; HTTP load round-robins workers)")
		tcpAddr  = flag.String("tcp", "", "daemon TCP line-protocol address(es), comma-separated (required for -proto tcp)")
		proto    = flag.String("proto", "http", "load path: http or tcp")
		queries  = flag.Int("queries", 50000, "total queries to send")
		conns    = flag.Int("conns", 4, "concurrent connections/clients")
		mechName = flag.String("mech", "flood", "search mechanism: flood, walk, or abf")
		ttl      = flag.Int("ttl", 4, "query TTL")
		zipf     = flag.Float64("zipf", 1.2, "Zipf exponent of the object popularity skew (0 = uniform)")
		seed     = flag.Int64("seed", 1, "workload seed")
		label    = flag.String("label", "", "row label (e.g. cache-on)")
		jsonOut  = flag.String("json", "", "write the result row as JSON to this path")
		verOut   = flag.String("verify-out", "", "record accepted answers (found/hop/messages/visited per object) into this JSON file")
		verIn    = flag.String("verify-against", "", "compare accepted answers against this recorded file; any mismatch fails the run")
	)
	flag.Parse()

	mech, err := serve.ParseMechanism(*mechName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *proto != "http" && *proto != "tcp" {
		fmt.Fprintf(os.Stderr, "bad -proto %q (want http or tcp)\n", *proto)
		return 2
	}
	httpAddrs := splitAddrs(*httpAddr)
	tcpAddrs := splitAddrs(*tcpAddr)
	if *proto == "tcp" && len(tcpAddrs) == 0 {
		fmt.Fprintln(os.Stderr, "-proto tcp needs -tcp <addr>[,<addr>...]")
		return 2
	}
	if len(httpAddrs) == 0 {
		fmt.Fprintln(os.Stderr, "need -http <addr> for the catalog fetch")
		return 2
	}

	objects, err := fetchCatalog(httpAddrs[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "catalog fetch: %v\n", err)
		return 1
	}
	fmt.Printf("catalog: %d objects from %s\n", len(objects), httpAddrs[0])

	// The workload is the trace model's Zipf draw order, shared across
	// connections: worker w sends events w, w+conns, w+2*conns, ... so
	// the object sequence is independent of scheduling.
	stream, err := trace.NewStream(trace.StreamConfig{
		Duration: float64(*queries), Rate: 1.5, Objects: len(objects), ZipfExp: *zipf, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	work := make([]uint64, *queries)
	for i := range work {
		ev, ok := stream.Next()
		if !ok {
			fmt.Fprintln(os.Stderr, "trace stream exhausted before the query budget")
			return 1
		}
		work[i] = objects[ev.Object]
	}

	res, err := run(*proto, httpAddrs, tcpAddrs, work, mech, *ttl, *conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	row := res.row(*label, *proto, mech.String(), *ttl, *zipf, *conns, *seed, len(objects))
	if *verIn != "" {
		verified, err := verifyAgainst(*verIn, res.answers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "VERIFY FAILED: %v\n", err)
			return 1
		}
		row.Verified = verified
		fmt.Printf("verified %d answers bit-identical against %s\n", verified, *verIn)
	}
	fmt.Printf("%s: %d ok (%d shed, %d limited, %d errors) in %.2fs — %.0f qps, "+
		"p50 %.3fms p99 %.3fms p999 %.3fms, cache hit %.1f%%, found %.1f%%\n",
		rowName(row), row.OK, row.Shed, row.RateLimited, row.Errors, row.WallSeconds,
		row.QPS, row.P50Ms, row.P99Ms, row.P999Ms, 100*row.CacheHitRate, 100*row.FoundRate)

	if *verOut != "" {
		if err := writeAnswers(*verOut, res.answers); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *verOut, err)
			return 1
		}
		fmt.Printf("%d answers recorded into %s\n", len(res.answers), *verOut)
	}
	if *jsonOut != "" {
		rep := Report{Generated: time.Now().UTC().Format(time.RFC3339), Rows: []Row{row}}
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			return 1
		}
		fmt.Printf("row written to %s\n", *jsonOut)
	}
	if row.failed() {
		fmt.Fprintf(os.Stderr, "RUN FAILED: %d ok, %d errors\n", row.OK, row.Errors)
		return 1
	}
	return 0
}

// fetchCatalog pulls the servable object ids from the daemon.
func fetchCatalog(httpAddr string) ([]uint64, error) {
	resp, err := http.Get("http://" + httpAddr + "/objects")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/objects: status %d", resp.StatusCode)
	}
	var doc struct {
		Objects []string `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	if len(doc.Objects) == 0 {
		return nil, fmt.Errorf("daemon serves no objects")
	}
	out := make([]uint64, len(doc.Objects))
	for i, s := range doc.Objects {
		v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("object %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

// answer is the deterministic part of one accepted reply — everything
// but the cache-hit bit, which legitimately varies between servers.
// By the serve purity contract, two accepted answers for the same
// object (same mech/ttl/seed/epoch) must be identical, whoever served
// them.
type answer struct {
	Found    bool `json:"found"`
	Hop      int  `json:"hop"`
	Messages int  `json:"messages"`
	Visited  int  `json:"visited"`
}

// result aggregates one run; latencies hold only accepted (H/200)
// requests, so percentiles measure served quality, not shed turnaround.
type result struct {
	wall      time.Duration
	latencies []time.Duration
	ok        int
	shed      int
	limited   int
	errors    int
	hits      int
	found     int
	answers   map[uint64]answer
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// run replays work closed-loop: each of conns workers sends its next
// query as soon as the previous one is answered.
func run(proto string, httpAddrs, tcpAddrs []string, work []uint64, mech serve.Mechanism, ttl, conns int) (*result, error) {
	type shard struct {
		lats                                     []time.Duration
		ok, shed, limited, errorsN, hits, foundN int
		answers                                  map[uint64]answer
	}
	shards := make([]shard, conns)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// send issues one lookup and returns the reply in the line
			// protocol's vocabulary, whichever path carried it.
			var send func(obj uint64) (serve.Reply, error)
			switch proto {
			case "tcp":
				conn, err := net.Dial("tcp", tcpAddrs[w%len(tcpAddrs)])
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				defer conn.Close()
				r := bufio.NewReaderSize(conn, 16<<10)
				send = func(obj uint64) (serve.Reply, error) {
					if _, err := io.WriteString(conn, serve.EncodeQuery(serve.Request{Mech: mech, Object: obj, TTL: ttl})); err != nil {
						return serve.Reply{}, err
					}
					line, err := r.ReadString('\n')
					if err != nil {
						return serve.Reply{}, err
					}
					return serve.ParseReply(line)
				}
			default:
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
				clientID := fmt.Sprintf("loadgen-%d", w)
				base := fmt.Sprintf("http://%s/lookup?mech=%s&ttl=%d&obj=",
					httpAddrs[w%len(httpAddrs)], mech, ttl)
				send = func(obj uint64) (serve.Reply, error) {
					req, err := http.NewRequest(http.MethodGet, base+strconv.FormatUint(obj, 10), nil)
					if err != nil {
						return serve.Reply{}, err
					}
					req.Header.Set("X-Makalu-Client", clientID)
					resp, err := client.Do(req)
					if err != nil {
						return serve.Reply{}, err
					}
					defer resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						var reply serve.LookupReply
						if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
							return serve.Reply{}, err
						}
						return serve.Reply{
							Kind: serve.ReplyHit, Found: reply.Found, Hop: reply.FirstMatchHop,
							Messages: reply.Messages, Visited: reply.Visited, CacheHit: reply.CacheHit,
						}, nil
					case http.StatusTooManyRequests:
						var er struct {
							Reason string `json:"reason"`
						}
						_ = json.NewDecoder(resp.Body).Decode(&er)
						if er.Reason == "rate" {
							return serve.Reply{Kind: serve.ReplyLimited}, nil
						}
						return serve.Reply{Kind: serve.ReplyShed}, nil
					default:
						return serve.Reply{Kind: serve.ReplyError}, nil
					}
				}
			}
			sh := &shards[w]
			sh.answers = make(map[uint64]answer)
			for i := w; i < len(work); i += conns {
				t0 := time.Now()
				reply, err := send(work[i])
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("query %d: %w", i, err)
					}
					errMu.Unlock()
					return
				}
				switch reply.Kind {
				case serve.ReplyHit:
					sh.ok++
					sh.lats = append(sh.lats, time.Since(t0))
					ans := answer{Found: reply.Found, Hop: reply.Hop, Messages: reply.Messages, Visited: reply.Visited}
					if reply.CacheHit {
						sh.hits++
					}
					if ans.Found {
						sh.foundN++
					}
					if prev, seen := sh.answers[work[i]]; seen && prev != ans {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("object %#x answered %+v then %+v — purity violation", work[i], prev, ans)
						}
						errMu.Unlock()
						return
					}
					sh.answers[work[i]] = ans
				case serve.ReplyShed:
					sh.shed++
				case serve.ReplyLimited:
					sh.limited++
				default:
					sh.errorsN++
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res := &result{wall: time.Since(start), answers: make(map[uint64]answer)}
	for i := range shards {
		sh := &shards[i]
		res.latencies = append(res.latencies, sh.lats...)
		res.ok += sh.ok
		res.shed += sh.shed
		res.limited += sh.limited
		res.errors += sh.errorsN
		res.hits += sh.hits
		res.found += sh.foundN
		for obj, ans := range sh.answers {
			if prev, seen := res.answers[obj]; seen && prev != ans {
				return nil, fmt.Errorf("object %#x answered %+v by one worker, %+v by another — purity violation", obj, prev, ans)
			}
			res.answers[obj] = ans
		}
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res, nil
}

// answersDoc is the -verify-out / -verify-against file: object id
// (decimal string key; JSON objects cannot key on numbers) -> answer.
type answersDoc struct {
	Answers map[string]answer `json:"answers"`
}

func writeAnswers(path string, answers map[uint64]answer) error {
	doc := answersDoc{Answers: make(map[string]answer, len(answers))}
	for obj, ans := range answers {
		doc.Answers[strconv.FormatUint(obj, 10)] = ans
	}
	return writeJSON(path, doc)
}

// verifyAgainst compares this run's accepted answers with a recorded
// file on their common objects. Any differing field is a purity-
// contract violation (the two servers computed different results for
// the same key) and fails the run; disjoint objects are fine — shed
// requests and different Zipf tails shrink the intersection, they do
// not fake agreement.
func verifyAgainst(path string, got map[uint64]answer) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc answersDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("%s: %v", path, err)
	}
	verified := 0
	for objStr, want := range doc.Answers {
		obj, err := strconv.ParseUint(objStr, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: bad object key %q", path, objStr)
		}
		ans, ok := got[obj]
		if !ok {
			continue
		}
		if ans != want {
			return 0, fmt.Errorf("object %s: got %+v, recorded %+v", objStr, ans, want)
		}
		verified++
	}
	if verified == 0 {
		return 0, fmt.Errorf("no overlapping objects with %s — nothing verified", path)
	}
	return verified, nil
}
