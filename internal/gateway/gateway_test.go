package gateway

import (
	"bufio"
	"errors"
	"fmt"
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

// testBackends builds k in-process serve backends over the SAME graph,
// store, and seed — replicas in the exact sense the serving tier
// assumes: any of them answers any key with bit-identical results
// (serve's purity contract). Returns the line-protocol addrs.
func testBackends(t *testing.T, k int) (addrs []string, engines []*serve.Engine, servers []*serve.TCPServer) {
	t.Helper()
	const n = 400
	m := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		m.AddEdge(i, (i+1)%n)
		m.AddEdge(i, (i+7)%n)
		m.AddEdge(i, (i+31)%n)
	}
	g := m.Freeze(nil)
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 60, Replication: 0.02, MinReplicas: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		eng, err := serve.New(serve.Config{
			Graph: g, Store: store, Shards: 2, Seed: 42, CacheCapacity: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewTCPServer("127.0.0.1:0", eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
		for _, e := range engines {
			e.Close()
		}
	})
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
	gw, err := New(Config{Backends: specs, Route: RouteHash, HealthInterval: time.Hour})
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
// next ring replica (pool failure -> fail over), the health path
// evicts the dead backend, and answers stay bit-identical throughout.
func TestGatewayFailover(t *testing.T) {
	addrs, engines, servers := testBackends(t, 3)
	specs := make([]BackendSpec, len(addrs))
	for i, a := range addrs {
		specs[i] = BackendSpec{Addr: a}
	}
	gw, err := New(Config{
		Backends: specs, Route: RouteHash,
		HealthInterval: 25 * time.Millisecond, FailThreshold: 2,
	})
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
	deadline := time.Now().Add(5 * time.Second)
	for gw.Healthy() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("healthy = %d, want 2 after killing one backend", gw.Healthy())
		}
		time.Sleep(5 * time.Millisecond)
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
// fails promptly with the transport error, and through the gateway the
// request fails over to the next replica like after any other one.
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

	good, _ := fakeBackend(t, 0)
	gw, err := New(Config{
		Backends:       []BackendSpec{{Addr: endless}, {Addr: good}},
		HedgeMin:       time.Hour, // the rescue below must be failover, not a hedge
		HedgeMax:       time.Hour,
		HealthInterval: time.Hour,
		FailThreshold:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	key := uint64(0)
	for gw.targets(key)[0].Addr() != endless {
		key++
	}
	if reply, err := gw.Forward(key, "Q flood 7 4\n"); err != nil || reply != "H 1 1 7 1 0\n" {
		t.Fatalf("forward past the endless backend: %q, %v", reply, err)
	}
}

// TestGatewayHedging pins tail tolerance: a key whose primary is slow
// gets re-issued to the next ring replica after the hedge delay, and
// the fast replica's (bit-identical) answer wins well before the
// primary would have replied.
func TestGatewayHedging(t *testing.T) {
	slowAddr, _ := fakeBackend(t, 300*time.Millisecond)
	fastAddr, fastServed := fakeBackend(t, 0)
	gw, err := New(Config{
		Backends:       []BackendSpec{{Addr: slowAddr}, {Addr: fastAddr}},
		Route:          RouteHash,
		HedgeMin:       5 * time.Millisecond,
		HedgeMax:       5 * time.Millisecond,
		HealthInterval: time.Hour,
		FailThreshold:  1000, // keep eviction out of this test
		Metrics:        nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	// Find a key the ring assigns to the SLOW backend.
	key := uint64(0)
	for gw.targets(key)[0].Addr() != slowAddr {
		key++
	}
	start := time.Now()
	reply, err := gw.Forward(key, "Q flood 1 4\n")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if reply != "H 1 1 1 1 0\n" {
		t.Fatalf("reply %q", reply)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedge did not rescue the request: took %v (primary delay is 300ms)", elapsed)
	}
	if fastServed.Load() == 0 {
		t.Fatal("fast replica never served — the winning answer came from nowhere")
	}
}

// TestGatewayHealthEvictRejoin flips a backend's /healthz between
// healthy and failing and pins the ring membership lifecycle: evicted
// after FailThreshold consecutive bad probes, rejoined after one good
// probe. Also pins stale-epoch eviction: a backend reporting an older
// overlay epoch than its peers is unhealthy even though it is up.
func TestGatewayHealthEvictRejoin(t *testing.T) {
	tcpA, _ := fakeBackend(t, 0)
	tcpB, _ := fakeBackend(t, 0)
	var healthyB, epochB atomic.Int64
	healthyB.Store(1)
	mkHealth := func(healthy *atomic.Int64, epoch *atomic.Int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if healthy != nil && healthy.Load() == 0 {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			var e int64
			if epoch != nil {
				e = epoch.Load()
			}
			fmt.Fprintf(w, `{"ok":true,"epoch":%d,"shards":2,"queue_depth":0}`, e)
		}))
	}
	srvA := mkHealth(nil, nil)
	defer srvA.Close()
	srvB := mkHealth(&healthyB, &epochB)
	defer srvB.Close()
	strip := func(u string) string { return strings.TrimPrefix(u, "http://") }
	gw, err := New(Config{
		Backends: []BackendSpec{
			{Addr: tcpA, HTTP: strip(srvA.URL)},
			{Addr: tcpB, HTTP: strip(srvB.URL)},
		},
		HealthInterval:   10 * time.Millisecond,
		FailThreshold:    2,
		StaleEpochEvicts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	waitHealthy := func(want int, why string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for gw.Healthy() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: healthy = %d, want %d", why, gw.Healthy(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitHealthy(2, "startup")
	healthyB.Store(0)
	waitHealthy(1, "after B starts failing probes")
	healthyB.Store(1)
	waitHealthy(2, "after B recovers")

	// Stale epoch: A moves to epoch 1 (fake always reports 0)... flip
	// roles: B reports epoch 1, A stays at 0 -> A is stale and evicted.
	epochB.Store(1)
	waitHealthy(1, "after B advances the epoch (A stale)")
	backA := gw.Backends()[0]
	if backA.Up() {
		t.Fatal("stale-epoch backend still in the ring")
	}
	epochB.Store(0)
	waitHealthy(2, "after epochs re-agree")
}
