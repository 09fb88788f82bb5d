package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

var errNoAlive = errors.New("no alive node")

// ownersPrimary is the reference routing rule: the first alive owner of h,
// else — every configured replica dead — the first alive node in ring
// order past them.
func ownersPrimary(s *Snapshot, h uint64) (NodeID, error) {
	for _, n := range s.ring.Owners(h) {
		if s.alive[n] {
			return n, nil
		}
	}
	es := s.ring.entries
	idx := sort.Search(len(es), func(i int) bool { return es[i].hash >= h })
	for i := 0; i < len(es); i++ {
		if e := es[(idx+i)%len(es)]; s.alive[e.node] {
			return e.node, nil
		}
	}
	return 0, errNoAlive
}

// checkPrimary compares the table-driven Primary against the reference
// rule at every ring entry, either side of it, past the last entry (the
// wrap), and at random hashes.
func checkPrimary(t *testing.T, rng *rand.Rand, s *Snapshot, label string) {
	t.Helper()
	probes := []uint64{0, math.MaxUint64}
	for _, e := range s.ring.entries {
		probes = append(probes, e.hash-1, e.hash, e.hash+1)
	}
	for i := 0; i < 64; i++ {
		probes = append(probes, rng.Uint64())
	}
	for _, h := range probes {
		want, wantErr := ownersPrimary(s, h)
		got, err := s.Primary(h)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s h=%d: error %v, reference %v", label, h, err, wantErr)
		}
		if err == nil && got != want {
			t.Fatalf("%s h=%d: Primary=%d, reference %d", label, h, got, want)
		}
	}
}

// Property: for random rings and alive sets, and along every chain of
// Without removals down to no alive node, the precomputed routing table
// agrees with the owners-then-fallback rule.
func TestSnapshotPrimaryMatchesOwnersRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n, vnodes, repl := 1+rng.Intn(8), 1+rng.Intn(64), 1+rng.Intn(3)
		r := NewRing(n, vnodes, repl)
		var alive []NodeID
		for _, node := range r.Nodes() {
			if rng.Intn(3) > 0 {
				alive = append(alive, node)
			}
		}
		s := NewSnapshot(r, alive)
		checkPrimary(t, rng, s, "random alive set")
		for _, dead := range rng.Perm(n) {
			s = s.Without(NodeID(dead))
			checkPrimary(t, rng, s, "Without chain")
		}
		if len(s.AliveNodes()) != 0 {
			t.Fatal("Without chain must end with no alive node")
		}
		if _, err := s.Primary(rng.Uint64()); err == nil {
			t.Fatal("Primary with no alive node must fail")
		}
	}
}

func TestSnapshotPrimaryAllocFree(t *testing.T) {
	r := NewRing(8, 64, 3)
	snap := NewSnapshot(r, []NodeID{1, 3, 4, 6})
	h := uint64(0x9e3779b97f4a7c15)
	if a := testing.AllocsPerRun(1000, func() { h++; _, _ = snap.Primary(h) }); a != 0 {
		t.Fatalf("Primary allocates %.1f times per call, want 0", a)
	}
}

// BenchmarkSnapshotPrimary is the per-tuple routing lookup of rehash and
// owned scans; allocs/op must read 0.
func BenchmarkSnapshotPrimary(b *testing.B) {
	snap := NewSnapshot(NewRing(8, 64, 3), []NodeID{0, 1, 2, 4, 5, 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Primary(splitmix64(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
