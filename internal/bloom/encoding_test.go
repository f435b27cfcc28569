package bloom

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFilterRoundTrip(t *testing.T) {
	f := New(1000, 5) // deliberately not a multiple of 64
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if g.m != f.m || g.k != f.k || g.n != f.n {
		t.Fatalf("geometry lost: %d/%d/%d vs %d/%d/%d", g.m, g.k, g.n, f.m, f.k, f.n)
	}
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatal("key lost in round trip")
		}
	}
	if !slices.Equal(g.words, f.words) {
		t.Fatal("bit pattern changed")
	}
}

func TestFilterRoundTripProperty(t *testing.T) {
	prop := func(keys []uint64, mRaw uint16, kRaw uint8) bool {
		m := int(mRaw)%4096 + 64
		k := int(kRaw)%8 + 1
		f := New(m, k)
		for _, key := range keys {
			f.Add(key)
		}
		b, err := f.MarshalBinary()
		if err != nil {
			return false
		}
		var g Filter
		if err := g.UnmarshalBinary(b); err != nil {
			return false
		}
		for _, key := range keys {
			if !g.Contains(key) {
				return false
			}
		}
		return slices.Equal(g.words, f.words)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterUnmarshalRejectsCorruption(t *testing.T) {
	f := New(256, 3)
	f.Add(7)
	good, _ := f.MarshalBinary()

	cases := map[string][]byte{
		"short":     good[:10],
		"bad magic": append([]byte{9, 9, 9, 9}, good[4:]...),
		"truncated": good[:len(good)-8],
		"trailing":  append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		var g Filter
		if err := g.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s frame accepted", name)
		}
	}

	// Zero geometry.
	bad := append([]byte{}, good...)
	bad[12], bad[13], bad[14], bad[15] = 0, 0, 0, 0 // k = 0
	var g Filter
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFilterUnmarshalRejectsOutOfRangeBits(t *testing.T) {
	// A 100-bit filter occupies 2 words; bits 100..127 must be clear.
	f := New(100, 2)
	good, _ := f.MarshalBinary()
	bad := append([]byte{}, good...)
	bad[len(bad)-1] |= 0x80 // set bit 127
	var g Filter
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Fatal("out-of-range bit accepted")
	}
}

func TestAttenuatedRoundTrip(t *testing.T) {
	a := NewAttenuated([]int{256, 1024, 4096}, 4)
	a.Add(0, 11)
	a.Add(1, 22)
	a.Add(2, 33)
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var c Attenuated
	if err := c.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 3 {
		t.Fatalf("depth = %d", c.Depth())
	}
	if c.MatchLevel(11) != 0 || c.MatchLevel(22) != 1 || c.MatchLevel(33) != 2 {
		t.Fatal("levels scrambled in round trip")
	}
}

func TestAttenuatedUnmarshalRejectsCorruption(t *testing.T) {
	a := NewAttenuated([]int{128, 128}, 3)
	good, _ := a.MarshalBinary()
	for name, data := range map[string][]byte{
		"empty":     {},
		"zero lvls": {0, 0, 0, 0},
		"truncated": good[:len(good)-4],
		"trailing":  append(append([]byte{}, good...), 1, 2, 3),
	} {
		var c Attenuated
		if err := c.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s frame accepted", name)
		}
	}
}

func TestEncodedSizeMatchesMemoryModel(t *testing.T) {
	// The wire size is what the paper's feasibility argument meters:
	// header + bits/8 per level.
	a := NewAttenuated([]int{512, 2048}, 4)
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := 4 + 2*(4+24) + (512+2048)/8
	if len(b) != want {
		t.Fatalf("encoded size %d, want %d", len(b), want)
	}
}
