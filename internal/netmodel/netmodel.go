// Package netmodel implements the physical-network latency models the
// paper uses to validate Makalu (§3.1): a synthetic Euclidean plane, a
// GT-ITM-style transit-stub hierarchy and a PlanetLab-like RTT matrix.
//
// All models are deterministic given their seed, symmetric
// (Latency(u,v) == Latency(v,u)) and cheap to query, so the overlay
// algorithms can probe arbitrary pairs without precomputing an O(n²)
// matrix.
package netmodel

import (
	"math"
	"math/rand"
)

// Model supplies pairwise latency between nodes of a simulated
// physical network. Latencies are in abstract milliseconds.
type Model interface {
	// N returns the number of nodes the model covers.
	N() int
	// Latency returns the symmetric latency between u and v.
	// Latency(u, u) is 0.
	Latency(u, v int) float64
}

// Euclidean places nodes uniformly at random on a square plane; the
// latency between two nodes is their Euclidean distance. This is the
// paper's first synthetic model.
type Euclidean struct {
	// p holds the coordinates interleaved as [x0,y0, x1,y1, ...].
	// Latency is the innermost random-access read of overlay
	// construction, and with each pair adjacent an endpoint costs one
	// cache miss, not two.
	p []float64
}

// NewEuclidean creates an Euclidean model of n nodes on a side×side
// plane using the given seed.
func NewEuclidean(n int, side float64, seed int64) *Euclidean {
	if n < 0 {
		panic("netmodel: negative node count")
	}
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, 2*n)
	for i := range p {
		p[i] = rng.Float64() * side // x then y, node by node
	}
	return &Euclidean{p: p}
}

// N returns the number of nodes.
func (e *Euclidean) N() int { return len(e.p) / 2 }

// Packed returns the coordinates interleaved as [x0,y0, x1,y1, ...].
// Callers read it and must not write it.
func (e *Euclidean) Packed() []float64 { return e.p }

// Latency returns the Euclidean distance between u and v.
func (e *Euclidean) Latency(u, v int) float64 {
	p := e.p
	dx, dy := p[2*u]-p[2*v], p[2*u+1]-p[2*v+1]
	return math.Sqrt(dx*dx + dy*dy)
}

// The transit-stub hierarchy's shape. Latencies come out realistic for
// wide-area hosts: LAN ≈ 1–5 ms, uplinks ≈ 10–30 ms, backbone up to
// ~120 ms.
const (
	tsTransitDomains   = 4     // transit (backbone) domains
	tsTransitPerDomain = 4     // transit routers per transit domain
	tsStubsPerTransit  = 3     // stub domains hanging off each transit router
	tsLANLatency       = 5.0   // max latency from a host to its stub router
	tsStubUplink       = 20.0  // mean latency of the stub→transit uplink
	tsTransitSide      = 100.0 // side of the plane transit routers live on
)

// TransitStub is a closed-form transit-stub latency model: every host
// belongs to a stub domain attached to a transit router; transit
// routers are placed on a plane whose Euclidean distances form the
// backbone latency. The latency between two hosts is
//
//	local(u) + uplink(stub(u)) + backbone + uplink(stub(v)) + local(v)
//
// with the intra-stub case collapsing to local(u)+local(v). This
// reproduces the hierarchical latency structure of GT-ITM topologies
// without shelling out to the original generator.
type TransitStub struct {
	n         int
	stubOf    []int32   // host -> stub domain
	local     []float64 // host -> latency to its stub router
	transitOf []int32   // stub -> transit router
	uplink    []float64 // stub -> uplink latency
	tx, ty    []float64 // transit router coordinates
}

// NewTransitStub builds a transit-stub model covering n hosts from
// seed. Hosts are assigned to stub domains round-robin so domain sizes
// are balanced.
func NewTransitStub(n int, seed int64) *TransitStub {
	rng := rand.New(rand.NewSource(seed))
	numTransit := tsTransitDomains * tsTransitPerDomain
	numStubs := numTransit * tsStubsPerTransit
	ts := &TransitStub{
		n:         n,
		stubOf:    make([]int32, n),
		local:     make([]float64, n),
		transitOf: make([]int32, numStubs),
		uplink:    make([]float64, numStubs),
		tx:        make([]float64, numTransit),
		ty:        make([]float64, numTransit),
	}
	// Transit routers cluster per domain: each domain gets a random
	// center, routers scatter near it.
	for d := 0; d < tsTransitDomains; d++ {
		cx := rng.Float64() * tsTransitSide
		cy := rng.Float64() * tsTransitSide
		for r := 0; r < tsTransitPerDomain; r++ {
			i := d*tsTransitPerDomain + r
			ts.tx[i] = cx + (rng.Float64()-0.5)*tsTransitSide/5
			ts.ty[i] = cy + (rng.Float64()-0.5)*tsTransitSide/5
		}
	}
	for s := 0; s < numStubs; s++ {
		ts.transitOf[s] = int32(s / tsStubsPerTransit)
		ts.uplink[s] = tsStubUplink * (0.5 + rng.Float64())
	}
	for h := 0; h < n; h++ {
		ts.stubOf[h] = int32(h % numStubs)
		ts.local[h] = tsLANLatency * rng.Float64()
	}
	return ts
}

// N returns the number of hosts.
func (ts *TransitStub) N() int { return ts.n }

// Latency returns the hierarchical latency between hosts u and v.
func (ts *TransitStub) Latency(u, v int) float64 {
	if u == v {
		return 0
	}
	su, sv := ts.stubOf[u], ts.stubOf[v]
	if su == sv {
		return ts.local[u] + ts.local[v]
	}
	tu, tv := ts.transitOf[su], ts.transitOf[sv]
	backbone := 0.0
	if tu != tv {
		dx := ts.tx[tu] - ts.tx[tv]
		dy := ts.ty[tu] - ts.ty[tv]
		backbone = math.Sqrt(dx*dx + dy*dy)
	}
	// Group the terms so the sum is bit-identical in both directions.
	return (ts.local[u] + ts.local[v]) + (ts.uplink[su] + ts.uplink[sv]) + backbone
}

// The PlanetLab matrix's shape mirrors the gross statistics of the
// Stribling all-pairs ping dataset: ~200 sites in a handful of
// continental clusters, intra-continent RTTs of tens of ms and
// intercontinental RTTs of 100–300 ms with heavy jitter.
const (
	plSites        = 200   // measurement sites (paper: ~200)
	plClusters     = 5     // geographic clusters (continents)
	plIntraCluster = 30.0  // mean RTT between sites in a cluster
	plInterCluster = 160.0 // mean RTT between sites in different clusters
	plSiteLAN      = 3.0   // max node-to-site latency
	plJitterFrac   = 0.4   // relative jitter applied per site pair
)

// PlanetLab synthesizes an all-pairs RTT matrix over a fixed set of
// sites and expands it to n nodes by assigning each node to a site —
// the same expansion the paper applies to the measured PlanetLab
// matrix. Site-to-site RTTs are drawn once; node latency adds a small
// LAN component on each side.
type PlanetLab struct {
	siteOf []int32
	lan    []float64
	rtt    []float64 // plSites × plSites, row-major
}

// NewPlanetLab builds the synthetic matrix from seed and assigns n
// nodes to sites uniformly at random.
func NewPlanetLab(n int, seed int64) *PlanetLab {
	rng := rand.New(rand.NewSource(seed))
	pl := &PlanetLab{
		siteOf: make([]int32, n),
		lan:    make([]float64, n),
		rtt:    make([]float64, plSites*plSites),
	}
	cluster := make([]int, plSites)
	for s := range cluster {
		cluster[s] = rng.Intn(plClusters)
	}
	for a := 0; a < plSites; a++ {
		for b := a + 1; b < plSites; b++ {
			base := plInterCluster
			if cluster[a] == cluster[b] {
				base = plIntraCluster
			}
			// Heavy-ish tail: exponential-like multiplier so a few
			// pairs are much slower, as in real ping data.
			mult := 1 + plJitterFrac*rng.ExpFloat64()
			v := base * mult
			pl.rtt[a*plSites+b] = v
			pl.rtt[b*plSites+a] = v
		}
	}
	for i := 0; i < n; i++ {
		pl.siteOf[i] = int32(rng.Intn(plSites))
		pl.lan[i] = rng.Float64() * plSiteLAN
	}
	return pl
}

// N returns the number of nodes.
func (pl *PlanetLab) N() int { return len(pl.siteOf) }

// Latency returns the RTT-derived latency between nodes u and v.
func (pl *PlanetLab) Latency(u, v int) float64 {
	if u == v {
		return 0
	}
	su, sv := pl.siteOf[u], pl.siteOf[v]
	if su == sv {
		return pl.lan[u] + pl.lan[v]
	}
	// Group the LAN terms so the sum is bit-identical in both directions.
	return (pl.lan[u] + pl.lan[v]) + pl.rtt[int(su)*plSites+int(sv)]
}
