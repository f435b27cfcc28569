package main

import (
	"math/rand"
	"strconv"

	"makalu/internal/serve"
)

// sizes fixes the overlay and catalog sizes of every workload; operation
// counts scale with --seconds, sizes do not.
type sizes struct {
	lookupN, lookupObjects int
	buildN                 int
	batchN, batchObjects   int
	churnN, churnObjects   int
}

var (
	fullSizes = sizes{lookupN: 20000, lookupObjects: 2000, buildN: 30000, batchN: 10000, batchObjects: 2000, churnN: 8000, churnObjects: 50}
	tinySizes = sizes{lookupN: 2000, lookupObjects: 300, buildN: 2000, batchN: 2000, batchObjects: 300, churnN: 1000, churnObjects: 50}
)

// sequence is a request trace generated before timing: the parsed
// requests and their pre-rendered protocol lines in one buffer, so the
// send loop allocates nothing and the program under test receives only
// the generated lines.
type sequence struct {
	reqs []serve.Request
	buf  []byte
	off  []int32 // line i is buf[off[i]:off[i+1]]
}

func (s *sequence) line(i int) []byte { return s.buf[s.off[i]:s.off[i+1]] }

const (
	floodTTL = 4
	walkTTL  = 1024
)

// genSequence draws n requests: objects by Zipf(zipfS) rank over the
// catalog (uniformly when zipfS is 0), a walkShare fraction as random
// walks and the rest as floods.
func genSequence(seed int64, n int, objects []uint64, zipfS, walkShare float64) *sequence {
	rng := rand.New(rand.NewSource(seed))
	rank := func() uint64 { return uint64(rng.Intn(len(objects))) }
	if zipfS > 0 {
		rank = rand.NewZipf(rng, zipfS, 1, uint64(len(objects)-1)).Uint64
	}
	s := &sequence{reqs: make([]serve.Request, n), buf: make([]byte, 0, 32*n), off: make([]int32, n+1)}
	for i := range s.reqs {
		req := serve.Request{Mech: serve.MechFlood, Object: objects[rank()], TTL: floodTTL}
		if walkShare > 0 && rng.Float64() < walkShare {
			req.Mech, req.TTL = serve.MechWalk, walkTTL
		}
		s.reqs[i] = req
		s.buf = appendLine(s.buf, req)
		s.off[i+1] = int32(len(s.buf))
	}
	return s
}

// distinct returns the sequence's distinct requests in first-appearance
// order: the warm-up trace that fills a cache larger than the catalog.
func (s *sequence) distinct() *sequence {
	out := &sequence{off: []int32{0}}
	seen := map[serve.Request]bool{}
	for _, req := range s.reqs {
		if seen[req] {
			continue
		}
		seen[req] = true
		out.reqs = append(out.reqs, req)
		out.buf = appendLine(out.buf, req)
		out.off = append(out.off, int32(len(out.buf)))
	}
	return out
}

func appendLine(buf []byte, req serve.Request) []byte {
	buf = append(buf, "Q "...)
	buf = append(buf, req.Mech.String()...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, req.Object, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(req.TTL), 10)
	return append(buf, '\n')
}
