package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"makalu/internal/obs"
)

func httpFixture(t *testing.T, lim *Limiter, reg *obs.Registry) (*Engine, *httptest.Server) {
	t.Helper()
	g, store := testOverlay(t, 300, 30)
	e, err := New(Config{
		Graph: g, Store: store,
		Seed: 17, CacheCapacity: 128, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(HTTPConfig{
		Engine: e, Limiter: lim, Metrics: reg, Debug: reg != nil,
	}))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return e, srv
}

func TestHTTPLookupRoundTrip(t *testing.T) {
	e, srv := httpFixture(t, nil, nil)
	obj := fmt.Sprintf("0x%x", objForTest(t, e))

	get := func(url string) (*http.Response, LookupReply) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply LookupReply
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
				t.Fatal(err)
			}
		}
		return resp, reply
	}

	resp, first := get(srv.URL + "/lookup?obj=" + obj + "&mech=flood&ttl=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !first.Found || first.Mech != "flood" || first.TTL != 4 || first.Object != obj {
		t.Fatalf("reply %+v", first)
	}
	if first.CacheHit {
		t.Fatal("first lookup must be computed, not cached")
	}
	resp, second := get(srv.URL + "/lookup?obj=" + obj + "&mech=flood&ttl=4")
	if resp.StatusCode != http.StatusOK || !second.CacheHit {
		t.Fatalf("repeat lookup: status %d, reply %+v", resp.StatusCode, second)
	}
	if second.Visited != first.Visited || second.Messages != first.Messages {
		t.Fatalf("cached reply diverged: %+v vs %+v", second, first)
	}

	// Decimal and 0x forms are the same object.
	var dec uint64
	fmt.Sscanf(obj, "0x%x", &dec)
	resp, third := get(fmt.Sprintf("%s/lookup?obj=%d&mech=flood&ttl=4", srv.URL, dec))
	if resp.StatusCode != http.StatusOK || !third.CacheHit {
		t.Fatalf("decimal form missed the cache: status %d, %+v", resp.StatusCode, third)
	}

	for _, bad := range []string{
		"/lookup",                      // missing obj
		"/lookup?obj=zzz",              // bad id
		"/lookup?obj=1&mech=quantum",   // unknown mechanism
		"/lookup?obj=1&ttl=none",       // bad ttl
		"/lookup?obj=1&mech=abf&ttl=4", // no ABF index loaded
	} {
		if resp, _ := get(srv.URL + bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// objForTest returns an object id that exists in the engine's store.
func objForTest(t *testing.T, e *Engine) uint64 {
	t.Helper()
	objs := e.snap.Load().store.Objects()
	if len(objs) == 0 {
		t.Fatal("no objects placed")
	}
	return objs[0]
}

func TestHTTPRateLimit429(t *testing.T) {
	clk := newFakeClock()
	lim := withClock(NewLimiter(1, 2), clk)
	e, srv := httpFixture(t, lim, nil)
	url := fmt.Sprintf("%s/lookup?obj=%d", srv.URL, objForTest(t, e))
	do := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("X-Makalu-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := do("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := do("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another client is unaffected; the header is the client identity.
	if resp := do("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob caught alice's 429: status %d", resp.StatusCode)
	}
	clk.advance(2 * time.Second)
	if resp := do("alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice still limited after refill: status %d", resp.StatusCode)
	}
}

// TestHTTPShed429: with every admission slot taken an HTTP lookup is
// shed with 429 and Retry-After; once the slots are released, the same
// lookup is served. The test takes the slots through admit itself: one
// leader holds the one kernel and defaultQueueDepth wait in the FIFO.
func TestHTTPShed429(t *testing.T) {
	setProcs(t, 1)
	e, srv := httpFixture(t, nil, nil)
	e.mu.Lock()
	kn, _ := e.admit(new(flight))
	for e.admitted < e.limit {
		e.admit(new(flight))
	}
	e.mu.Unlock()
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/lookup?obj=5000&ttl=2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	if status, retry := get(); status != http.StatusTooManyRequests || retry == "" {
		t.Fatalf("lookup on a full engine: status %d, Retry-After %q, want 429 with Retry-After", status, retry)
	}
	e.mu.Lock()
	for e.finish(kn) != nil { // the kernel passes down the FIFO, then idles
	}
	e.mu.Unlock()
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("lookup after the release: status %d, want 200", status)
	}
}

func TestHTTPHealthAndDebugEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	e, srv := httpFixture(t, nil, reg)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK     bool   `json:"ok"`
		Epoch  uint64 `json:"epoch"`
		Shards int    `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Shards != runtime.GOMAXPROCS(0) {
		t.Fatalf("healthz %+v", health)
	}

	// Serve a couple of queries so metrics are non-trivial.
	obj := objForTest(t, e)
	for i := 0; i < 3; i++ {
		r, err := http.Get(fmt.Sprintf("%s/lookup?obj=%d", srv.URL, obj))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	mresp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		Counters   map[string]json.RawMessage `json:"counters"`
		Gauges     map[string]json.RawMessage `json:"gauges"`
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			P99   float64 `json:"p99"`
			P999  float64 `json:"p999"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serve.requests", "serve.cache_hits"} {
		if _, found := metrics.Counters[want]; !found {
			t.Fatalf("/debug/metrics missing counter %q (got %v)", want, keysOf(metrics.Counters))
		}
	}
	if _, found := metrics.Gauges["serve.cache_entries"]; !found {
		t.Fatalf("/debug/metrics missing gauge serve.cache_entries (got %v)", keysOf(metrics.Gauges))
	}
	lat, found := metrics.Histograms["serve.latency_ns"]
	if !found {
		t.Fatal("/debug/metrics missing histogram serve.latency_ns")
	}
	if lat.Count == 0 || lat.P999 < lat.P99 || lat.P999 == 0 {
		t.Fatalf("latency histogram %+v — p999 export is broken", lat)
	}
	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", presp.StatusCode)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTCPLineProtocol(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	abf := testABF(t, g, store)
	e, err := New(Config{Graph: g, Store: store, ABF: abf, Seed: 21, CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewTCPServer("127.0.0.1:0", e, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); e.Close() }()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	obj := store.Objects()[0]

	send := func(line string) string {
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(reply, "\n")
	}

	first := send(fmt.Sprintf("Q flood %d 4", obj))
	if !strings.HasPrefix(first, "H 1 ") || !strings.HasSuffix(first, " 0") {
		t.Fatalf("first reply %q: want hit=found, cachehit=0", first)
	}
	second := send(fmt.Sprintf("Q flood %d 4", obj))
	if !strings.HasSuffix(second, " 1") {
		t.Fatalf("repeat reply %q: want cachehit=1", second)
	}
	// Same result fields either way (strip the trailing cachehit flag).
	if first[:len(first)-1] != second[:len(second)-1] {
		t.Fatalf("cached TCP reply diverged: %q vs %q", first, second)
	}
	if rep := send(fmt.Sprintf("Q walk 0x%x 128", obj)); !strings.HasPrefix(rep, "H ") {
		t.Fatalf("walk reply %q", rep)
	}
	if rep := send(fmt.Sprintf("Q abf %d 64", obj)); !strings.HasPrefix(rep, "H ") {
		t.Fatalf("abf reply %q", rep)
	}
	for _, bad := range []string{"HELLO", "Q flood 1", "Q quantum 1 4", "Q flood zzz 4", "Q flood 1 none"} {
		if rep := send(bad); !strings.HasPrefix(rep, "E ") {
			t.Fatalf("%q got %q, want E", bad, rep)
		}
	}

	// Pipelining: several requests in one write, replies in order.
	var batch strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&batch, "Q flood %d 4\n", obj)
	}
	if _, err := conn.Write([]byte(batch.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("pipelined reply %d: %v", i, err)
		}
		if !strings.HasPrefix(reply, "H ") {
			t.Fatalf("pipelined reply %d = %q", i, reply)
		}
	}
}

func TestTCPRateLimit(t *testing.T) {
	g, store := testOverlay(t, 200, 20)
	e, err := New(Config{Graph: g, Store: store, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	lim := withClock(NewLimiter(1, 2), clk)
	srv, err := NewTCPServer("127.0.0.1:0", e, lim)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); e.Close() }()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	obj := store.Objects()[0]
	for i := 0; i < 3; i++ {
		fmt.Fprintf(conn, "Q flood %d 4\n", obj)
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		want := "H "
		if i >= 2 {
			want = "R " // burst of 2 exhausted
		}
		if !strings.HasPrefix(reply, want) {
			t.Fatalf("request %d reply %q, want prefix %q", i, reply, want)
		}
	}
}
