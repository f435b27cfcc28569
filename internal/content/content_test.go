package content

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestPlaceValidation(t *testing.T) {
	if _, err := Place(0, PlacementConfig{Objects: 1}); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := Place(10, PlacementConfig{Objects: 0}); err == nil {
		t.Fatal("zero objects should fail")
	}
	if _, err := Place(10, PlacementConfig{Objects: 1, Replication: 1.5}); err == nil {
		t.Fatal("replication > 1 should fail")
	}
	if _, err := Place(10, PlacementConfig{Objects: 1, Replication: -0.1}); err == nil {
		t.Fatal("negative replication should fail")
	}
}

func TestPlaceReplicaCounts(t *testing.T) {
	n := 1000
	s, err := Place(n, PlacementConfig{Objects: 50, Replication: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range s.Objects() {
		if got := s.ReplicaCount(obj); got != 10 {
			t.Fatalf("object %x has %d replicas, want 10", obj, got)
		}
	}
}

func TestPlaceMinReplicasFloor(t *testing.T) {
	s, err := Place(100, PlacementConfig{Objects: 5, Replication: 0.0001, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range s.Objects() {
		if s.ReplicaCount(obj) != 1 {
			t.Fatalf("replica floor violated: %d", s.ReplicaCount(obj))
		}
	}
	// Explicit higher floor.
	s2, err := Place(100, PlacementConfig{Objects: 5, Replication: 0, MinReplicas: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range s2.Objects() {
		if s2.ReplicaCount(obj) != 3 {
			t.Fatalf("MinReplicas not honored: %d", s2.ReplicaCount(obj))
		}
	}
}

func TestPlaceReplicationClampsToN(t *testing.T) {
	s, err := Place(10, PlacementConfig{Objects: 2, Replication: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range s.Objects() {
		if s.ReplicaCount(obj) != 10 {
			t.Fatalf("full replication should hit every node, got %d", s.ReplicaCount(obj))
		}
	}
}

func TestPlaceConsistency(t *testing.T) {
	n := 500
	s, err := Place(n, PlacementConfig{Objects: 40, Replication: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Has() agrees with Replicas() and NodeObjects() both ways.
	for _, obj := range s.Objects() {
		for _, h := range s.Replicas(obj) {
			if !s.Has(int(h), obj) {
				t.Fatalf("replica list says node %d hosts %x but Has disagrees", h, obj)
			}
		}
	}
	total := 0
	for u := 0; u < n; u++ {
		for _, obj := range s.NodeObjects(u) {
			total++
			found := false
			for _, h := range s.Replicas(obj) {
				if int(h) == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d hosts %x but is missing from replica list", u, obj)
			}
		}
	}
	if total != 40*10 {
		t.Fatalf("total placements = %d, want 400", total)
	}
}

func TestPlaceDistinctHosts(t *testing.T) {
	s, err := Place(50, PlacementConfig{Objects: 20, Replication: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range s.Objects() {
		hosts := s.Replicas(obj)
		for i := 1; i < len(hosts); i++ {
			if hosts[i] == hosts[i-1] {
				t.Fatalf("duplicate host %d for object %x", hosts[i], obj)
			}
		}
	}
}

func TestPlaceUniformity(t *testing.T) {
	// With many objects, per-node load should concentrate around the
	// mean (binomial): no node wildly over- or under-loaded.
	n := 200
	s, err := Place(n, PlacementConfig{Objects: 2000, Replication: 0.05, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	mean := 2000.0 * 10.0 / 200.0 // copies per object = 10
	for u := 0; u < n; u++ {
		load := float64(len(s.NodeObjects(u)))
		if math.Abs(load-mean) > 5*math.Sqrt(mean) {
			t.Fatalf("node %d load %v, mean %v: placement not uniform", u, load, mean)
		}
	}
}

func TestObjectIDStability(t *testing.T) {
	if ObjectID(1, 0) != ObjectID(1, 0) {
		t.Fatal("ObjectID must be deterministic")
	}
	if ObjectID(1, 0) == ObjectID(1, 1) || ObjectID(1, 0) == ObjectID(2, 0) {
		t.Fatal("ObjectID collisions across index/seed")
	}
}

func TestRandomObject(t *testing.T) {
	s, err := Place(50, PlacementConfig{Objects: 10, Replication: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		obj := s.RandomObject(rng)
		if s.ReplicaCount(obj) == 0 {
			t.Fatal("random object has no replicas")
		}
	}
}

func TestQRPTable(t *testing.T) {
	s, err := Place(100, PlacementConfig{Objects: 30, Replication: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	node := int(s.Replicas(s.Objects()[0])[0])
	q := BuildQRPTable(s, node, 4096, 4)
	for _, obj := range s.NodeObjects(node) {
		if !q.MayMatch(obj) {
			t.Fatalf("QRP table false negative for hosted object %x", obj)
		}
	}
}

func TestGenerateCatalog(t *testing.T) {
	c, err := GenerateCatalog(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names) != 500 {
		t.Fatalf("catalog size %d", len(c.Names))
	}
	for i, name := range c.Names {
		if len(strings.Fields(name)) != 4 {
			t.Fatalf("object %d malformed: %q", i, name)
		}
	}
	if _, err := GenerateCatalog(0, 1); err == nil {
		t.Fatal("empty catalog should fail")
	}
}
