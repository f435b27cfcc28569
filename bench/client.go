package main

import (
	"bufio"
	"net"
	"sync"
	"syscall"
	"time"
)

// checkEvery is the answer-checking stride: every 16th reply is compared
// field by field with a reference engine.
const checkEvery = 16

// answer is the deterministic part of an H reply (the cache-hit bit
// legitimately varies).
type answer struct {
	found                  bool
	hop, messages, visited int
}

// client is the load generator's connection set plus preallocated
// per-request records, so the timed loops allocate nothing.
type client struct {
	st    *stack // the stack the connections lead to: its epoch counters bound a reply's epoch
	conns []net.Conn
	rd    []*bufio.Reader
	dead  []bool // connection w has had a transport error; fail fast from then on
	seq   *sequence

	status []byte  // first byte of each reply; 0 = none, 'X' = transport error
	hit    []bool  // cache-hit bit of each H reply
	lat    []int64 // ns per request
	ans    []answer
	// Epoch bounds of each checked request: bumps completed before it was
	// sent, bumps begun before its reply arrived.
	eMin, eMax []uint32
}

func dialClient(st *stack, conns int) (*client, error) {
	c := &client{st: st}
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", st.front.Addr())
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		c.rd = append(c.rd, bufio.NewReaderSize(conn, 16<<10))
	}
	c.dead = make([]bool, conns)
	return c, nil
}

func (c *client) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
}

// load points the client at a sequence and sizes its records.
func (c *client) load(seq *sequence) {
	n := len(seq.reqs)
	c.seq = seq
	c.status = make([]byte, n)
	c.hit = make([]bool, n)
	c.lat = make([]int64, n)
	checked := n/checkEvery + 1
	c.ans = make([]answer, checked)
	c.eMin = make([]uint32, checked)
	c.eMax = make([]uint32, checked)
}

// replyTimeout bounds one reply wait; a request that exceeds it counts as
// an error, and so does everything after it on that connection.
const replyTimeout = 20 * time.Second

// roundTrip sends request i on connection w and reads its reply.
func (c *client) roundTrip(w, i int) {
	c.sent(i)
	if _, err := c.conns[w].Write(c.seq.line(i)); err != nil {
		c.dead[w] = true
	}
	c.readReply(w, i)
}

// sent is called just before request i is written.
func (c *client) sent(i int) {
	if i%checkEvery == 0 {
		c.eMin[i/checkEvery] = c.st.epochDone.Load()
	}
}

func (c *client) readReply(w, i int) {
	if c.dead[w] {
		c.status[i] = 'X'
		return
	}
	c.conns[w].SetReadDeadline(time.Now().Add(replyTimeout))
	line, err := c.rd[w].ReadSlice('\n')
	if err != nil || len(line) == 0 {
		c.dead[w] = true
		c.status[i] = 'X'
		return
	}
	c.status[i] = line[0]
	if line[0] != 'H' {
		return
	}
	a, hit, ok := parseH(line)
	if !ok {
		c.status[i] = 'X'
		return
	}
	c.hit[i] = hit
	if i%checkEvery == 0 {
		c.ans[i/checkEvery] = a
		c.eMax[i/checkEvery] = c.st.epochStarted.Load()
	}
}

// parseH reads "H <found> <hop> <messages> <visited> <cachehit>\n"
// without allocating.
func parseH(line []byte) (a answer, hit, ok bool) {
	var f [5]int
	p := 1
	for k := range f {
		if p >= len(line) || line[p] != ' ' {
			return a, false, false
		}
		p++
		neg := false
		if p < len(line) && line[p] == '-' {
			neg = true
			p++
		}
		start := p
		v := 0
		for p < len(line) && line[p] >= '0' && line[p] <= '9' {
			v = v*10 + int(line[p]-'0')
			p++
		}
		if p == start {
			return a, false, false
		}
		if neg {
			v = -v
		}
		f[k] = v
	}
	return answer{found: f[0] == 1, hop: f[1], messages: f[2], visited: f[3]}, f[4] == 1, true
}

// closedLoop runs requests [0,n) over `workers` goroutines, worker w
// taking w, w+workers, ...: each sends its next request only after the
// previous reply. do performs request i on worker w; its duration goes to
// lat[i] and, when starts is non-nil, its start time to starts[i].
func closedLoop(n, workers int, lat []int64, starts []time.Time, do func(w, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				start := time.Now()
				do(w, i)
				lat[i] = int64(time.Since(start))
				if starts != nil {
					starts[i] = start
				}
			}
		}(w)
	}
	wg.Wait()
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread in nanosleep(2) until t. Not
// time.Sleep: with nothing else runnable the Go runtime parks in
// epoll_wait, whose timeout is whole milliseconds, so sub-millisecond
// sleeps overshoot by up to a millisecond and the schedule saw-tooths.
// The thread's timer slack is first dropped from the default 50 us to the
// minimum, which halves how late nanosleep returns (p50 96 us -> 43 us on
// the reference host); it is set before every sleep because a goroutine
// may wake on another thread, and not by wiring the goroutine to one,
// which costs a thread hand-off per wake-up and made the schedule later.
func sleepUntil(t time.Time) {
	// A signal (the runtime preempts with them) ends a nanosleep early, so
	// sleep again until the time has come.
	for d := time.Until(t); d > 0; d = time.Until(t) {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// openLoop sends request i at start + i/rate regardless of replies (each
// connection is pipelined: a sender and a receiver goroutine), and times
// each request from when it was due, so a stall is charged to every
// request it delays. lag[i] is how late the generator sent request i.
// every is called by the sender before request i when i is a positive
// multiple of everyN.
func (c *client) openLoop(rate float64, lag []int64, everyN int, every func()) {
	n := len(c.seq.reqs)
	workers := len(c.conns)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) * interval)) }
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // sender
			defer wg.Done()
			for i := w; i < n; i += workers {
				d := due(i)
				sleepUntil(d)
				if everyN > 0 && i > 0 && i%everyN == 0 {
					every()
				}
				c.sent(i)
				lag[i] = int64(time.Since(d))
				if _, err := c.conns[w].Write(c.seq.line(i)); err != nil {
					// The receiver sees the closed socket and marks the
					// rest of this connection's requests as errors.
					c.conns[w].Close()
					return
				}
			}
		}(w)
		go func(w int) { // receiver
			defer wg.Done()
			for i := w; i < n; i += workers {
				c.readReply(w, i)
				c.lat[i] = int64(time.Since(due(i)))
			}
		}(w)
	}
	wg.Wait()
}
