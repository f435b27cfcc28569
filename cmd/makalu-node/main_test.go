package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"makalu/internal/testnet"
)

func TestParseID(t *testing.T) {
	cases := []struct {
		in      string
		want    uint64
		wantErr bool
	}{
		{"0", 0, false},
		{"1001", 1001, false},
		{"18446744073709551615", ^uint64(0), false},
		{"0x0", 0, false},
		{"0x3e9", 1001, false},
		{"0X3E9", 1001, false},
		{"0xffffffffffffffff", ^uint64(0), false},
		{"", 0, true},
		{"0x", 0, true},
		{"banana", 0, true},
		{"-5", 0, true},
		{"0xg1", 0, true},
		{"18446744073709551616", 0, true}, // uint64 overflow
	}
	for _, c := range cases {
		got, err := parseID(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseID(%q): err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("parseID(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseIDList(t *testing.T) {
	cases := []struct {
		in      string
		want    []uint64
		wantErr bool
	}{
		{"", nil, false},
		{",,,", nil, false},
		{"1001", []uint64{1001}, false},
		{"1001,1002", []uint64{1001, 1002}, false},
		{" 1001 , 0x3ea ,", []uint64{1001, 1002}, false},
		{"1001,banana", nil, true},
		{"0x,1001", nil, true},
	}
	for _, c := range cases {
		got, err := parseIDList(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseIDList(%q): err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseIDList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseIDList(%q)[%d] = %d, want %d", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestResolveDeny(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deny.txt")

	if got, err := resolveDeny(""); err != nil || got != nil {
		t.Fatalf("resolveDeny without a file = %v, %v", got, err)
	}
	// Missing file is an empty list, not an error: the testnet driver
	// creates deny files only when it first partitions a node.
	if got, err := resolveDeny(path); err != nil || len(got) != 0 {
		t.Fatalf("resolveDeny with missing file = %v, %v", got, err)
	}

	content := "# comment\n127.0.0.1:10\n\n  127.0.0.1:11  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resolveDeny(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:10", "127.0.0.1:11"}
	if len(got) != len(want) {
		t.Fatalf("resolveDeny = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resolveDeny = %v, want %v", got, want)
		}
	}
}

// freePort reserves and releases an ephemeral port; the window between
// release and reuse is small enough for a test.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// TestTwoProcessSocketSmoke is the satellite acceptance: two real
// makalu-node processes over real TCP — start, join, query, hit. It
// also exercises the two bugfixes end to end: the joiner launches
// BEFORE the seed exists (bootstrap must retry, not die), and the
// seed is shut down with SIGTERM (the handler must close cleanly and
// write its final -metrics-json snapshot).
func TestTwoProcessSocketSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bin, err := testnet.BuildNodeBinary(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedPort := freePort(t)
	seedAddr := fmt.Sprintf("127.0.0.1:%d", seedPort)
	seedStatus := filepath.Join(dir, "seed.json")

	// The joiner starts first: its bootstrap target does not exist yet,
	// so the first attempts MUST fail and be retried.
	joiner := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-seed", seedAddr,
		"-rng-seed", "42",
		"-query", "1001", "-ttl", "4", "-wait", "4s",
		"-join-timeout", "30s",
	)
	var joinerOut strings.Builder
	joiner.Stdout = &joinerOut
	joiner.Stderr = &joinerOut
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	defer joiner.Process.Kill()

	time.Sleep(1 * time.Second) // let the joiner fail at least once

	seed := exec.Command(bin,
		"-listen", seedAddr,
		"-store", "1001",
		"-rng-seed", "43",
		"-run", "60s",
		"-metrics-json", seedStatus,
		"-metrics-interval", "250ms",
	)
	var seedOut strings.Builder
	seed.Stdout = &seedOut
	seed.Stderr = &seedOut
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	defer seed.Process.Kill()

	joinDone := make(chan error, 1)
	go func() { joinDone <- joiner.Wait() }()
	select {
	case err := <-joinDone:
		if err != nil {
			t.Fatalf("joiner exited %v:\n%s", err, joinerOut.String())
		}
	case <-time.After(45 * time.Second):
		t.Fatalf("joiner did not finish; output so far:\n%s", joinerOut.String())
	}
	out := joinerOut.String()
	if !strings.Contains(out, "hit: object 0x3e9") {
		t.Fatalf("joiner got no hit for object 1001:\n%s", out)
	}
	if !strings.Contains(out, "retrying in") {
		t.Fatalf("joiner never exercised the bootstrap retry path:\n%s", out)
	}
	if !strings.Contains(out, "rng seed 42") {
		t.Fatalf("joiner did not log its effective rng seed:\n%s", out)
	}

	// SIGTERM the seed: the signal handler must close gracefully (exit
	// code 0) and leave a final status snapshot on disk.
	if err := seed.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	seedDone := make(chan error, 1)
	go func() { seedDone <- seed.Wait() }()
	select {
	case err := <-seedDone:
		if err != nil {
			t.Fatalf("seed exited %v after SIGTERM:\n%s", err, seedOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("seed ignored SIGTERM:\n%s", seedOut.String())
	}
	st, err := testnet.ReadNodeStatus(seedStatus)
	if err != nil {
		t.Fatalf("seed final status: %v\n%s", err, seedOut.String())
	}
	if !st.Final {
		t.Fatalf("seed status not marked final: %+v", st)
	}
	if st.Addr != seedAddr {
		t.Fatalf("seed status addr = %q, want %q", st.Addr, seedAddr)
	}
	if st.Seed != 43 {
		t.Fatalf("seed status seed = %d, want 43", st.Seed)
	}
	if st.Metrics.Counters["peer.joins"] == 0 {
		t.Fatalf("seed metrics recorded no joins: %+v", st.Metrics.Counters)
	}
}

// TestServeModeABFAndRateLimit is the caller of -serve-abf, -serve-rate
// and makalu-loadgen's -mech: a 2000-node daemon with the identifier
// index and a per-client limit of 20 queries/s (burst 40) gets 400 abf
// lookups over one TCP connection. The first answers are abf hits and
// the rest are refused with R, never with an error reply.
func TestServeModeABFAndRateLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "makalu/cmd/makalu-node", "makalu/cmd/makalu-loadgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	httpAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	tcpAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	node := exec.Command(filepath.Join(dir, "makalu-node"),
		"-serve-http", httpAddr, "-serve-tcp", tcpAddr,
		"-serve-nodes", "2000", "-serve-objects", "200",
		"-serve-abf", "-serve-rate", "20", "-rng-seed", "1",
	)
	var nodeOut strings.Builder
	node.Stdout = &nodeOut
	node.Stderr = &nodeOut
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Process.Kill()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy:\n%s", nodeOut.String())
		}
		time.Sleep(100 * time.Millisecond)
	}

	rowPath := filepath.Join(dir, "row.json")
	loadgen := exec.Command(filepath.Join(dir, "makalu-loadgen"),
		"-http", httpAddr, "-tcp", tcpAddr, "-proto", "tcp",
		"-mech", "abf", "-ttl", "25", "-queries", "400", "-conns", "1", "-seed", "1",
		"-json", rowPath,
	)
	if out, err := loadgen.CombinedOutput(); err != nil {
		t.Fatalf("loadgen: %v\n%s\ndaemon:\n%s", err, out, nodeOut.String())
	}
	data, err := os.ReadFile(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Rows []struct {
			Mech        string  `json:"mech"`
			OK          int     `json:"ok"`
			RateLimited int     `json:"rate_limited"`
			Errors      int     `json:"errors"`
			FoundRate   float64 `json:"found_rate"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Rows) != 1 {
		t.Fatalf("row %s: %v", data, err)
	}
	r := rep.Rows[0]
	if r.Mech != "abf" || r.OK == 0 || r.FoundRate == 0 || r.Errors != 0 {
		t.Errorf("want abf answers and no error replies, got %+v", r)
	}
	if r.RateLimited == 0 || r.OK+r.RateLimited != 400 || r.OK > 100 {
		t.Errorf("want about 40 answers and the rest refused with R at 20/s, got %+v", r)
	}

	if err := node.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := node.Wait(); err != nil {
		t.Fatalf("daemon exited %v after SIGTERM:\n%s", err, nodeOut.String())
	}
}
