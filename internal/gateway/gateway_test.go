package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/serve"
)

// testOverlay is the replicas' overlay: a 400-node circulant graph
// with steps 1, 7, 31 and extra (0: none), and a store over it.
func testOverlay(t *testing.T, extra int) (*graph.Graph, *content.Store) {
	t.Helper()
	const n = 400
	m := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		for _, step := range []int{1, 7, 31, extra} {
			if step > 0 {
				m.AddEdge(i, (i+step)%n)
			}
		}
	}
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 60, Replication: 0.02, MinReplicas: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Freeze(nil), store
}

// testEngines builds k in-process serve engines over the SAME graph,
// store, and seed — replicas in the exact sense the serving tier
// assumes: any of them answers any key with bit-identical results
// (serve's purity contract).
func testEngines(t *testing.T, k int) []*serve.Engine {
	t.Helper()
	g, store := testOverlay(t, 0)
	engines := make([]*serve.Engine, k)
	for i := range engines {
		eng, err := serve.New(serve.Config{
			Graph: g, Store: store, Seed: 42, CacheCapacity: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		engines[i] = eng
	}
	return engines
}

// testBackends serves k testEngines replicas on line-protocol sockets
// and returns their addrs.
func testBackends(t *testing.T, k int) (addrs []string, engines []*serve.Engine, servers []*serve.TCPServer) {
	t.Helper()
	engines = testEngines(t, k)
	for _, eng := range engines {
		srv, err := serve.NewTCPServer("127.0.0.1:0", eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, engines, servers
}

// lineClient is a minimal synchronous client for the line protocol.
type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialLine(t *testing.T, addr string) *lineClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &lineClient{conn: conn, r: bufio.NewReader(conn)}
}

func (c *lineClient) do(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("write %q: %v", line, err)
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply to %q: %v", line, err)
	}
	return strings.TrimRight(reply, "\n")
}

// stripCacheBit drops the trailing cache-hit field of an H reply —
// the only field that legitimately differs between backends serving
// the same pure result.
func stripCacheBit(t *testing.T, reply string) string {
	t.Helper()
	i := strings.LastIndexByte(reply, ' ')
	if !strings.HasPrefix(reply, "H ") || i < 0 {
		t.Fatalf("not an H reply: %q", reply)
	}
	return reply[:i]
}

// TestGatewayBitIdenticalAndAffinity is the tier's core contract in
// one pass: every reply through the gateway matches a direct backend's
// answer bit-for-bit (sans cache metadata), and key-affinity routing
// means a repeated request lands on the same backend's now-warm cache.
func TestGatewayBitIdenticalAndAffinity(t *testing.T) {
	addrs, engines, _ := testBackends(t, 3)
	specs := make([]BackendSpec, len(addrs))
	for i, a := range addrs {
		specs[i] = BackendSpec{Addr: a}
	}
	gw, err := newGateway(Config{Backends: specs, Route: RouteHash}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front, err := NewTCPServer("127.0.0.1:0", gw, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	cli := dialLine(t, front.Addr())
	objs := engines[0].Objects()
	hits := 0
	for _, obj := range objs {
		line := fmt.Sprintf("Q flood %d 4", obj)
		first := cli.do(t, line)
		direct, err := engines[0].Lookup(serve.Request{Mech: serve.MechFlood, Object: obj, TTL: 4})
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		if direct.Result.Success {
			found = 1
		}
		want := fmt.Sprintf("H %d %d %d %d", found, direct.Result.FirstMatchHop,
			direct.Result.Messages, direct.Result.Visited)
		if got := stripCacheBit(t, first); got != want {
			t.Fatalf("obj %d: gateway reply %q != direct %q — purity contract broken", obj, got, want)
		}
		second := cli.do(t, line)
		if stripCacheBit(t, second) != want {
			t.Fatalf("obj %d: second gateway reply %q != %q", obj, second, want)
		}
		if strings.HasSuffix(second, " 1") {
			hits++
		}
	}
	// Affinity: the second request for a key routes to the same backend,
	// whose cache now holds it. Demand near-total hit coverage.
	if hits < len(objs)*9/10 {
		t.Fatalf("only %d/%d repeated requests hit a warm cache — affinity routing is not sticking", hits, len(objs))
	}
	// A Z probe through the gateway reports tier status.
	if z := cli.do(t, "Z"); !strings.HasPrefix(z, "Z ") {
		t.Fatalf("gateway Z reply %q", z)
	}
	// Malformed lines are refused locally.
	if e := cli.do(t, "Q bogus 1 2"); !strings.HasPrefix(e, "E ") {
		t.Fatalf("bad mech reply %q, want E", e)
	}
}

// TestGatewayFailover kills one of three backends mid-stream and
// demands zero client-visible errors: in-flight forwards retry on the
// next ring replica (pool failure -> fail over), the failure streak
// evicts the dead backend, and answers stay bit-identical throughout.
func TestGatewayFailover(t *testing.T) {
	addrs, engines, servers := testBackends(t, 3)
	specs := make([]BackendSpec, len(addrs))
	for i, a := range addrs {
		specs[i] = BackendSpec{Addr: a}
	}
	gw, err := New(Config{Backends: specs, Route: RouteHash})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front, err := NewTCPServer("127.0.0.1:0", gw, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	// Expected answers, computed directly against a replica.
	objs := engines[0].Objects()
	want := make(map[uint64]string, len(objs))
	for _, obj := range objs {
		direct, err := engines[0].Lookup(serve.Request{Mech: serve.MechFlood, Object: obj, TTL: 4})
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		if direct.Result.Success {
			found = 1
		}
		want[obj] = fmt.Sprintf("H %d %d %d %d", found, direct.Result.FirstMatchHop,
			direct.Result.Messages, direct.Result.Visited)
	}

	cli := dialLine(t, front.Addr())
	const rounds = 12
	for r := 0; r < rounds; r++ {
		if r == 3 {
			// SIGKILL-equivalent for an in-process backend: connections
			// die without protocol goodbyes, then the engine goes away.
			servers[1].Close()
			engines[1].Close()
		}
		for _, obj := range objs {
			reply := cli.do(t, fmt.Sprintf("Q flood %d 4", obj))
			if strings.HasPrefix(reply, "E ") {
				t.Fatalf("round %d obj %d: client saw error %q — failover must hide a dead backend", r, obj, reply)
			}
			if got := stripCacheBit(t, reply); got != want[obj] {
				t.Fatalf("round %d obj %d: %q != %q after failover", r, obj, got, want[obj])
			}
		}
	}
	// The dead backend's forwards failed twice in a row long before the
	// rounds ended, which evicts it without waiting for a probe.
	if h := gw.Healthy(); h != 2 {
		t.Fatalf("healthy = %d, want 2 after killing one backend", h)
	}
}

// fakeLines scripts a backend: a serve line server whose every Q is
// answered by the func, and whose Z answers "Z 0 0".
type fakeLines func(w *bufio.Writer, req serve.Request)

func (fakeLines) Status() (uint64, int64) { return 0, 0 }

func (f fakeLines) Lookup(w *bufio.Writer, _ string, req serve.Request) { f(w, req) }

func startFake(t *testing.T, f fakeLines) (addr string) {
	t.Helper()
	srv, err := serve.NewLineServer("127.0.0.1:0", serve.TCPConfig{}, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.Addr()
}

// fakeBackend answers every Q with a canned H after an optional delay —
// just enough protocol for hedging and pool tests to control timing
// exactly. The H echoes the object id back (as the messages field) so
// callers can match replies to requests.
func fakeBackend(t *testing.T, delay time.Duration) (addr string, served *atomic.Int64) {
	t.Helper()
	served = new(atomic.Int64)
	return startFake(t, func(w *bufio.Writer, req serve.Request) {
		time.Sleep(delay)
		served.Add(1)
		serve.WriteReply(w, serve.Reply{Kind: serve.ReplyHit, Found: true, Hop: 1, Messages: int(req.Object), Visited: 1})
	}), served
}

// primaryAddr returns the backend gw tries first for key.
func primaryAddr(gw *Gateway, key uint64) string {
	var f attempts
	gw.order(&f, key)
	return f.targets[0].spec.Addr
}

// TestPoolPipelining drives many concurrent calls through a single
// pipelined connection and checks every caller gets its own reply —
// the FIFO write-order/read-order pairing the pool depends on.
func TestPoolPipelining(t *testing.T) {
	addr, served := fakeBackend(t, 0)
	p := NewPool(addr, 1, 0, 0)
	defer p.Close()
	const calls = 200
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := p.Do(fmt.Sprintf("Q flood %d 4\n", i))
			if err != nil {
				errs <- err
				return
			}
			want := fmt.Sprintf("H 1 1 %d 1 0\n", i)
			if reply != want {
				errs <- fmt.Errorf("call %d got %q, want %q — pipelined replies crossed", i, reply, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served.Load() != calls {
		t.Fatalf("backend served %d calls, want %d", served.Load(), calls)
	}
}

// TestPoolBoundsReplyLine pins the unbounded-reply fix: a backend that
// streams reply bytes without ever sending a newline must cost the pool
// one fixed read buffer and a dead connection — every call in flight
// fails promptly with the transport error. Through the gateway that is
// a torn reply, which the virtual schedules fail over
// (TestGatewaySchedules).
func TestPoolBoundsReplyLine(t *testing.T) {
	endless := startFake(t, func(w *bufio.Writer, _ serve.Request) {
		w.WriteString(strings.Repeat("H", 4*maxReplyLine))
	})
	p := NewPool(endless, 1, 0, 0)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if reply, err := p.Do("Q flood 1 4\n"); err == nil {
				t.Errorf("unterminated reply delivered as %d bytes", len(reply))
			}
		}()
	}
	wg.Wait()
	if _, err := p.Do("Q flood 1 4\n"); !errors.Is(err, bufio.ErrBufferFull) {
		t.Fatalf("err = %v, want bufio.ErrBufferFull", err)
	}

}

// TestHedgeDelayAdaptsWithoutMetrics: the hedge delay comes from the
// forwards' own latency whether or not a registry is attached, so a
// gateway without metrics hedges at its p99 too, not at the 50 ms cap.
func TestHedgeDelayAdaptsWithoutMetrics(t *testing.T) {
	a, _ := fakeBackend(t, 0)
	b, _ := fakeBackend(t, 0)
	gw, err := New(Config{Backends: []BackendSpec{{Addr: a}, {Addr: b}}, Metrics: nil})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for i := 0; i < 256; i++ {
		if _, err := gw.Forward(uint64(i), fmt.Sprintf("Q flood %d 4\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := gw.hedgeDelay(); d >= 50*time.Millisecond {
		t.Fatalf("hedge delay %v after 256 fast forwards, want the p99 below 50ms", d)
	}
}

// TestObjectsSkipsStalledBackend: a backend whose /objects never
// answers costs the proxy one client timeout, after which the next
// backend serves the catalog.
func TestObjectsSkipsStalledBackend(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(stalled.Close)
	served := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "[1,2,3]")
	}))
	t.Cleanup(served.Close)
	t.Cleanup(func() { close(release) })
	host := func(s *httptest.Server) string { return strings.TrimPrefix(s.URL, "http://") }
	gw, err := newGateway(Config{Backends: []BackendSpec{
		{Addr: "127.0.0.2:1", HTTP: host(stalled)},
		{Addr: "127.0.0.3:1", HTTP: host(served)},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(NewHTTPHandler(HTTPConfig{Gateway: gw}))
	defer front.Close()
	start := time.Now()
	resp, err := http.Get(front.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "[1,2,3]" {
		t.Fatalf("/objects: status %d, body %q; want the second backend's catalog", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 2*httpClient.Timeout {
		t.Fatalf("/objects took %v, want about one client timeout (%v)", took, httpClient.Timeout)
	}
}
