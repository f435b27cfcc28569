package makalu

import (
	"fmt"

	"makalu/internal/serve"
)

// ServeEngine builds a query-serving engine (internal/serve) over the
// current overlay snapshot and content placement — the bridge the
// makalu-node service mode uses. cfg.Graph/Store/ABF are filled from
// the overlay; pass ix (a BuildIdentifierIndex result over the same
// snapshot) to enable mech=abf lookups, or nil to serve flood/walk
// only.
//
// The engine captures the snapshot at call time and does not follow
// later overlay mutations.
func (ov *Overlay) ServeEngine(c *Content, ix *IdentifierIndex, cfg serve.Config) (*serve.Engine, error) {
	if c == nil {
		return nil, fmt.Errorf("makalu: nil content")
	}
	g := ov.graphSnapshot()
	cfg.Graph = g
	cfg.Store = c.store
	if ix != nil {
		if ix.g != g {
			return nil, fmt.Errorf("makalu: identifier index was built over a different overlay snapshot; rebuild it")
		}
		cfg.ABF = ix.net
	}
	if cfg.Seed == 0 {
		cfg.Seed = ov.cfg.Seed + 29
	}
	return serve.New(cfg)
}
