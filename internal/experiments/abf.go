package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"makalu/internal/dht"
	"makalu/internal/search"
)

// ABFCurve is one replication ratio's success-vs-TTL curve (Figure 4).
type ABFCurve struct {
	Replication  float64
	Success      []float64 // index = TTL (hop budget), 0..MaxTTL
	MeanMessages float64   // mean messages over successful lookups at MaxTTL
}

// Figure4Result is the E8 output.
type Figure4Result struct {
	N      int
	MaxTTL int
	Curves []ABFCurve
}

// RunFigure4 reproduces Figure 4: success rate vs TTL of attenuated-
// Bloom-filter identifier search on a Makalu overlay for replication
// ratios 0.1%, 0.5% and 1%. One max-TTL batch per ratio yields the
// whole curve: a lookup succeeds at TTL t iff it used ≤ t messages.
func RunFigure4(opt Options) (*Figure4Result, error) {
	mk, err := BuildMakalu(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{N: opt.N, MaxTTL: 25}
	for _, repl := range []float64{0.001, 0.005, 0.01} {
		store, err := PlaceObjects(opt.N, 20, repl, opt.Seed+int64(repl*1e7))
		if err != nil {
			return nil, err
		}
		net, err := search.BuildABFNetwork(mk.Graph, store, search.DefaultABFConfig())
		if err != nil {
			return nil, err
		}
		br := &search.BatchRunner{Graph: mk.Graph, Workers: opt.Workers, Seed: opt.Seed + 41, Obs: opt.Obs}
		agg := br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
			obj := store.RandomObject(rng)
			src := rng.Intn(opt.N)
			return k.ABF(net).Lookup(src, obj, res.MaxTTL, rng)
		})
		// A successful lookup's message count equals its first-match hop
		// (each hop is one message and the lookup returns on success),
		// so the whole curve falls out of the aggregate's hop tally.
		curve := ABFCurve{Replication: repl, Success: make([]float64, res.MaxTTL+1)}
		for ttl := 0; ttl <= res.MaxTTL; ttl++ {
			curve.Success[ttl] = float64(agg.SuccessesWithin(ttl)) / float64(agg.Queries)
		}
		if agg.Successes > 0 {
			curve.MeanMessages = agg.MeanHops()
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// Render formats the E8 curves.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8 (Figure 4) ABF identifier search success vs TTL — %d nodes\n", r.N)
	ttls := []int{1, 2, 3, 5, 8, 10, 15, 20, 25}
	fmt.Fprintf(&b, "%-12s", "Repl \\ TTL")
	for _, t := range ttls {
		fmt.Fprintf(&b, " %6d", t)
	}
	fmt.Fprintf(&b, " %12s\n", "mean msgs")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-12s", fmt.Sprintf("%.1f%%", c.Replication*100))
		for _, t := range ttls {
			fmt.Fprintf(&b, " %5.0f%%", 100*c.Success[t])
		}
		fmt.Fprintf(&b, " %12.2f\n", c.MeanMessages)
	}
	return b.String()
}

// ABFvsDHTResult is the E9 output: identifier search on Makalu+ABF
// against Chord and Kademlia lookups on the same population (§6
// credits Overnet's lookup speed to Kademlia, so both structured
// designs serve as reference points).
type ABFvsDHTResult struct {
	N                 int
	Replication       float64
	ABFSuccess        float64
	ABFMeanMsgs       float64 // over successful lookups
	ChordMeanHops     float64
	ChordStatePerNode float64 // mean finger count
	KadMeanHops       float64
	KadStatePerNode   float64 // mean k-bucket contacts
	ABFMemoryBytes    int64
}

// RunABFvsDHT reproduces the structured-systems comparison (§1, §4.6):
// mean message cost of ABF identifier search vs Chord lookup hops.
func RunABFvsDHT(opt Options, replication float64) (*ABFvsDHTResult, error) {
	mk, err := BuildMakalu(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	store, err := PlaceObjects(opt.N, 20, replication, opt.Seed+43)
	if err != nil {
		return nil, err
	}
	net, err := search.BuildABFNetwork(mk.Graph, store, search.DefaultABFConfig())
	if err != nil {
		return nil, err
	}
	chord, err := dht.New(opt.N, opt.Seed+47)
	if err != nil {
		return nil, err
	}
	kad, err := dht.NewKademlia(opt.N, 0, opt.Seed+49)
	if err != nil {
		return nil, err
	}
	res := &ABFvsDHTResult{
		N:                 opt.N,
		Replication:       replication,
		ChordStatePerNode: chord.MeanFingerCount(),
		KadStatePerNode:   kad.MeanContacts(),
		ABFMemoryBytes:    net.MemoryBytes(),
	}
	// ABF lookups run as a parallel batch; Chord and Kademlia lookups
	// are deterministic given (src, obj), so a cheap sequential pass
	// re-derives the same per-query (obj, src) pairs from the same
	// query seeds and routes them through both DHTs.
	br := &search.BatchRunner{Graph: mk.Graph, Workers: opt.Workers, Seed: opt.Seed + 53, Obs: opt.Obs}
	agg := br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(opt.N)
		return k.ABF(net).Lookup(src, obj, 25, rng)
	})
	res.ABFSuccess = agg.SuccessRate()
	if agg.Successes > 0 {
		// One message per hop and success returns immediately, so the
		// per-success message mean is the first-match hop mean.
		res.ABFMeanMsgs = agg.MeanHops()
	}
	chordHops, kadHops := 0, 0
	rng := rand.New(search.NewQuerySource())
	for q := 0; q < opt.Queries; q++ {
		rng.Seed(search.QuerySeed(opt.Seed+53, q))
		obj := store.RandomObject(rng)
		src := rng.Intn(opt.N)
		_, hops := chord.Lookup(src, obj)
		chordHops += hops
		_, khops := kad.Lookup(src, obj)
		kadHops += khops
	}
	res.ChordMeanHops = float64(chordHops) / float64(opt.Queries)
	res.KadMeanHops = float64(kadHops) / float64(opt.Queries)
	return res, nil
}

// Render formats the E9 comparison.
func (r *ABFvsDHTResult) Render() string {
	return fmt.Sprintf(
		"E9 (§4.6) Identifier search: Makalu+ABF vs structured DHTs — %d nodes, %.1f%% replication\n"+
			"  ABF:      success %.1f%%, mean messages %.2f, filter memory %s bytes\n"+
			"  Chord:    success 100.0%%, mean hops %.2f, mean fingers/node %.1f\n"+
			"  Kademlia: success 100.0%%, mean hops %.2f, mean contacts/node %.1f\n",
		r.N, r.Replication*100,
		100*r.ABFSuccess, r.ABFMeanMsgs, fmtInt(r.ABFMemoryBytes),
		r.ChordMeanHops, r.ChordStatePerNode,
		r.KadMeanHops, r.KadStatePerNode)
}
