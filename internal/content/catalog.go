package content

import (
	"fmt"
	"math/rand"
)

// Catalog gives objects human-style display names.
type Catalog struct {
	Names []string
}

var (
	nameAdjectives = []string{
		"red", "blue", "fast", "live", "remix", "classic", "deluxe",
		"ultimate", "original", "extended", "acoustic", "digital",
	}
	nameNouns = []string{
		"song", "album", "movie", "clip", "track", "mix", "show",
		"episode", "demo", "session", "concert", "single",
	}
	nameArtists = []string{
		"aurora", "nebula", "quartz", "ember", "willow", "falcon",
		"harbor", "juniper", "lumen", "meridian", "onyx", "prairie",
	}
)

// GenerateCatalog synthesizes numObjects named objects. Names look
// like "ember classic track 0042".
func GenerateCatalog(numObjects int, seed int64) (*Catalog, error) {
	if numObjects <= 0 {
		return nil, fmt.Errorf("content: catalog needs positive object count")
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Catalog{Names: make([]string, numObjects)}
	for i := 0; i < numObjects; i++ {
		artist := nameArtists[rng.Intn(len(nameArtists))]
		adj := nameAdjectives[rng.Intn(len(nameAdjectives))]
		noun := nameNouns[rng.Intn(len(nameNouns))]
		serial := fmt.Sprintf("%04d", i)
		c.Names[i] = artist + " " + adj + " " + noun + " " + serial
	}
	return c, nil
}
