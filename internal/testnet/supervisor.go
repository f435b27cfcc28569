package testnet

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// Proc is one supervised makalu-node process.
type Proc struct {
	Index      int
	Addr       string
	StatusPath string
	DenyPath   string
	LogPath    string

	cmd    *exec.Cmd
	exited chan struct{} // closed when Wait returns
	werr   error         // Wait's error, valid after exited closes
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

// Supervisor owns the process table of a testnet run: it spawns
// makalu-node processes with per-node flags, tracks their exits
// through background Wait goroutines, delivers kill waves and
// signals, and tears everything down (SIGTERM, then SIGKILL for
// stragglers) at the end. All process state lives here; the scenario
// logic in Run only speaks in node indices.
type Supervisor struct {
	bin string
	dir string

	mu    sync.Mutex
	procs []*Proc
	down  map[int]bool // killed by the harness or observed exited
}

// NewSupervisor prepares the run directory layout (log/, status/,
// deny/) under dir.
func NewSupervisor(bin, dir string) (*Supervisor, error) {
	for _, sub := range []string{"log", "status", "deny"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Supervisor{bin: bin, dir: dir, down: make(map[int]bool)}, nil
}

// Spawn launches node i listening on addr with the given extra args
// (the caller builds the flag list; the supervisor adds the output
// paths). The node's stdout/stderr go to log/node-<i>.log; the parent
// keeps no file descriptor open for it after the fork.
func (s *Supervisor) Spawn(i int, addr string, args []string) (*Proc, error) {
	p := &Proc{
		Index:      i,
		Addr:       addr,
		StatusPath: filepath.Join(s.dir, "status", fmt.Sprintf("node-%d.json", i)),
		DenyPath:   filepath.Join(s.dir, "deny", fmt.Sprintf("node-%d.txt", i)),
		LogPath:    filepath.Join(s.dir, "log", fmt.Sprintf("node-%d.log", i)),
		exited:     make(chan struct{}),
	}
	full := append([]string{
		"-listen", addr,
		"-metrics-json", p.StatusPath,
		"-deny-file", p.DenyPath,
	}, args...)
	logf, err := os.Create(p.LogPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(s.bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("testnet: spawn node %d: %w", i, err)
	}
	logf.Close() // the child holds its own descriptor
	p.cmd = cmd
	go func() {
		p.werr = cmd.Wait()
		close(p.exited)
	}()
	s.mu.Lock()
	for len(s.procs) <= i {
		s.procs = append(s.procs, nil)
	}
	s.procs[i] = p
	s.mu.Unlock()
	return p, nil
}

// Proc returns node i's process record (nil before spawn).
func (s *Supervisor) Proc(i int) *Proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.procs) {
		return nil
	}
	return s.procs[i]
}

// Kill SIGKILLs node i — a genuine silent crash: no signal handler
// runs, no final status is written, sockets die by kernel FIN/RST or
// silence, exactly the failure model the liveness layer must survive.
func (s *Supervisor) Kill(i int) error {
	p := s.Proc(i)
	if p == nil || p.cmd.Process == nil {
		return fmt.Errorf("testnet: kill: node %d not running", i)
	}
	s.mu.Lock()
	s.down[i] = true
	s.mu.Unlock()
	return p.cmd.Process.Kill()
}

// Signal sends sig to node i (SIGTERM for graceful shutdown, SIGHUP
// for deny-file reload).
func (s *Supervisor) Signal(i int, sig os.Signal) error {
	p := s.Proc(i)
	if p == nil || p.cmd.Process == nil || p.Exited() {
		return fmt.Errorf("testnet: signal: node %d not running", i)
	}
	return p.cmd.Process.Signal(sig)
}

// Alive reports whether node i is believed running: not harness-killed
// and not observed exited.
func (s *Supervisor) Alive(i int) bool {
	p := s.Proc(i)
	if p == nil || p.Exited() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down[i]
}

// LiveIndices returns the indices of nodes still believed running.
func (s *Supervisor) LiveIndices() []int {
	s.mu.Lock()
	n := len(s.procs)
	s.mu.Unlock()
	var out []int
	for i := 0; i < n; i++ {
		if s.Alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// StopAll gracefully terminates every live process: SIGTERM (the
// node's handler closes links with Bye and writes its final status),
// wait up to grace, then SIGKILL the stragglers and wait for every
// Wait goroutine to drain.
func (s *Supervisor) StopAll(grace time.Duration) {
	live := s.LiveIndices()
	for _, i := range live {
		s.Signal(i, syscall.SIGTERM)
	}
	deadline := time.Now().Add(grace)
	for _, i := range live {
		p := s.Proc(i)
		wait := time.Until(deadline)
		if wait < 0 {
			wait = 0
		}
		select {
		case <-p.exited:
		case <-time.After(wait):
			p.cmd.Process.Kill()
			<-p.exited
		}
		s.mu.Lock()
		s.down[i] = true
		s.mu.Unlock()
	}
	// Reap anything spawned but not in live (already down): ensure no
	// zombie outlives the run.
	s.mu.Lock()
	procs := append([]*Proc(nil), s.procs...)
	s.mu.Unlock()
	for _, p := range procs {
		if p == nil || p.Exited() {
			continue
		}
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// WriteDenyList replaces node i's deny file (one address per line)
// and SIGHUPs the process so it reloads. An empty list heals the
// node: the file is truncated and the reload clears the in-memory
// set.
func (s *Supervisor) WriteDenyList(i int, addrs []string) error {
	p := s.Proc(i)
	if p == nil {
		return fmt.Errorf("testnet: deny: node %d not spawned", i)
	}
	var buf []byte
	for _, a := range addrs {
		buf = append(buf, a...)
		buf = append(buf, '\n')
	}
	tmp := p.DenyPath + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, p.DenyPath); err != nil {
		return err
	}
	return s.Signal(i, syscall.SIGHUP)
}
