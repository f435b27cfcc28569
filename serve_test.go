package makalu

import (
	"testing"

	"makalu/internal/serve"
)

// TestUpdateServeSnapshot drives the facade's one way to re-snapshot a
// serving engine: a refused update changes nothing, an accepted one
// advances the epoch and empties the cache, and an identifier index
// must be built over the snapshot it is installed with.
func TestUpdateServeSnapshot(t *testing.T) {
	ov := newSmall(t, 600, 1)
	c, err := ov.PlaceContent(20, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	staleIx, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ov.ServeEngine(c, staleIx, serve.Config{CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	req := serve.Request{Mech: serve.MechFlood, Object: c.Objects()[0], TTL: 4}
	lookup := func(r serve.Request) serve.Response {
		t.Helper()
		resp, err := eng.Lookup(r)
		if err != nil {
			t.Fatalf("lookup %+v: %v", r, err)
		}
		return resp
	}
	lookup(req)
	if !lookup(req).CacheHit {
		t.Fatal("second lookup of a key missed the cache")
	}
	epoch := eng.Epoch()

	ov.FailRandom(60)
	ov.Heal(2)
	if err := ov.UpdateServeSnapshot(eng, c, staleIx); err == nil {
		t.Error("an identifier index built before the mutation was accepted")
	}
	if err := ov.UpdateServeSnapshot(eng, nil, nil); err == nil {
		t.Error("nil content was accepted")
	}
	if eng.Epoch() != epoch {
		t.Fatalf("refused updates moved the epoch %d -> %d", epoch, eng.Epoch())
	}
	if !lookup(req).CacheHit {
		t.Fatal("a refused update emptied the cache")
	}

	// Without an index the update drops mech=abf.
	if err := ov.UpdateServeSnapshot(eng, c, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, eng.Epoch())
	}
	epoch = eng.Epoch()
	if resp := lookup(req); resp.CacheHit || resp.Epoch != epoch {
		t.Fatalf("first lookup after the update: %+v, want a miss at epoch %d", resp, epoch)
	}
	if !lookup(req).CacheHit {
		t.Fatal("the re-filled key missed the cache")
	}
	abf := serve.Request{Mech: serve.MechABF, Object: c.Objects()[0], TTL: 25}
	if _, err := eng.Lookup(abf); err == nil {
		t.Error("mech=abf was served after an update without an index")
	}

	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.UpdateServeSnapshot(eng, c, ix); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, eng.Epoch())
	}
	lookup(abf)
}
