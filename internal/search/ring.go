package search

import "math/rand"

// RingConfig parameterizes expanding-ring TTL selection (§6 cites
// Chang & Liu's TTL-control work; expanding ring is the classic
// instance and RandomizedStart the randomized variant they propose
// when the object-location distribution is unknown).
type RingConfig struct {
	StartTTL        int  // first flood's TTL
	Step            int  // TTL increment between attempts
	MaxTTL          int  // give up beyond this TTL
	RandomizedStart bool // draw the first TTL uniformly from [1, StartTTL]
}

// DefaultRingConfig starts at TTL 1 and doubles coverage gently.
func DefaultRingConfig() RingConfig {
	return RingConfig{StartTTL: 1, Step: 1, MaxTTL: 8}
}

// ExpandingRing repeatedly floods from src with growing TTL until the
// query resolves or MaxTTL is exceeded. Messages accumulate across
// attempts (each re-flood re-sends the query), which is exactly the
// trade-off the TTL-selection literature optimizes.
func ExpandingRing(f *Flooder, src int, cfg RingConfig, match Matcher, rng *rand.Rand) Result {
	return expandingRing(f, src, cfg, match, nil, rng)
}

// ExpandingRingTargets is ExpandingRing whose floods match against the
// set t (Flooder.FloodTargets).
func ExpandingRingTargets(f *Flooder, src int, cfg RingConfig, t *Targets, rng *rand.Rand) Result {
	return expandingRing(f, src, cfg, nil, t, rng)
}

func expandingRing(f *Flooder, src int, cfg RingConfig, match Matcher, set *Targets, rng *rand.Rand) Result {
	total := Result{FirstMatchHop: -1}
	if cfg.StartTTL < 1 {
		cfg.StartTTL = 1
	}
	if cfg.Step < 1 {
		cfg.Step = 1
	}
	if cfg.MaxTTL < cfg.StartTTL {
		cfg.MaxTTL = cfg.StartTTL
	}
	ttl := cfg.StartTTL
	if cfg.RandomizedStart && cfg.StartTTL > 1 {
		ttl = 1 + rng.Intn(cfg.StartTTL)
	}
	for {
		r := f.flood(src, ttl, nil, match, set)
		total.Messages += r.Messages
		total.Duplicates += r.Duplicates
		if r.Visited > total.Visited {
			total.Visited = r.Visited // rings revisit; report widest ring
		}
		if r.Success {
			total.Success = true
			total.FirstMatchHop = r.FirstMatchHop
			total.MatchesFound = r.MatchesFound
			return total
		}
		if ttl >= cfg.MaxTTL {
			return total
		}
		ttl += cfg.Step
		if ttl > cfg.MaxTTL {
			ttl = cfg.MaxTTL
		}
	}
}
