package pgrid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/keys"
	"repro/internal/simnet"
)

// bulkEntries builds a batch with duplicate keys (several postings per key)
// and skew, so shard sorting, tie order and replica aliasing are all
// exercised.
func bulkEntries(n int) []BulkEntry {
	rng := rand.New(rand.NewSource(11))
	out := make([]BulkEntry, n)
	for i := range out {
		k := rng.Intn(n/3 + 1) // ~3 postings per distinct key
		out[i] = BulkEntry{Key: testKey(k), Posting: testPosting(i)}
	}
	return out
}

// sameStores fails the test unless every peer store of got holds exactly
// what the same peer of want holds, in the same order, duplicate-key ties
// included.
func sameStores(t *testing.T, got, want *Grid, nPeers int) {
	t.Helper()
	for id := 0; id < nPeers; id++ {
		gp, _ := got.Peer(simnet.NodeID(id))
		wp, _ := want.Peer(simnet.NodeID(id))
		gs, ws := gp.allPostings(), wp.allPostings()
		if !slices.EqualFunc(gs.keys, ws.keys, keys.Key.Equal) || !slices.Equal(gs.postings, ws.postings) {
			t.Fatalf("peer %d: store of %d entries differs from the reference's %d", id, gs.size, ws.size)
		}
	}
}

// TestBulkLoadMatchesSerialBulkInsert is the package-level equivalence
// oracle: for several worker counts, BulkLoad must leave every peer store
// byte-identical — same length, same iteration order including duplicate-key
// ties — to a routed Insert of every entry, the write path the rest of the
// system uses, and lookups must return identical postings.
func TestBulkLoadMatchesSerialBulkInsert(t *testing.T) {
	const nPeers, nItems = 64, 4000
	entries := bulkEntries(nItems)
	sample := make([]keys.Key, len(entries))
	for i, e := range entries {
		sample[i] = e.Key
	}
	cfg := Config{Replication: 2, RefsPerLevel: 2, Seed: 3}

	build := func() (*Grid, *simnet.Network) {
		net := simnet.New(nPeers)
		g, err := Build(net, nPeers, sample, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, net
	}

	ref, _ := build()
	for i, e := range entries {
		if err := ref.Insert(nil, simnet.NodeID(i%nPeers), e.Key, e.Posting); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g, _ := build()
			if err := g.BulkLoad(entries, workers); err != nil {
				t.Fatal(err)
			}
			sameStores(t, g, ref, nPeers)
			// Routed lookups agree too.
			for i := 0; i < 50; i++ {
				k := testKey(i * 17 % (nItems/3 + 1))
				want, err := ref.Lookup(nil, simnet.NodeID(i%nPeers), k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.Lookup(nil, simnet.NodeID(i%nPeers), k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("lookup %s: %d postings, want %d", k, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("lookup %s: posting %d diverges", k, j)
					}
				}
			}
		})
	}
}

// TestBulkLoadOrdersTiesByPosting hands BulkLoad a batch sorted by key only,
// whose equal-key runs are out of posting order (testPosting's oids are not
// fixed-width, so "o10" sorts before "o9"), and checks every peer store
// comes out byte-identical to loading the same batch sorted by (key,
// posting): the order stores keep does not depend on the order the batch
// arrives in.
func TestBulkLoadOrdersTiesByPosting(t *testing.T) {
	const nPeers = 32
	keySorted := bulkEntries(3000)
	slices.SortStableFunc(keySorted, func(a, b BulkEntry) int { return a.Key.Compare(b.Key) })
	tieSorted := slices.Clone(keySorted)
	slices.SortStableFunc(tieSorted, func(a, b BulkEntry) int { return compareEntries(&a, &b) })
	if slices.EqualFunc(keySorted, tieSorted, func(a, b BulkEntry) bool { return compareEntries(&a, &b) == 0 }) {
		t.Fatal("fixture: the key-sorted batch is already in posting order under every key")
	}
	sample := make([]keys.Key, len(keySorted))
	for i, e := range keySorted {
		sample[i] = e.Key
	}
	cfg := Config{Replication: 2, RefsPerLevel: 2, Seed: 5}
	load := func(entries []BulkEntry, workers int) *Grid {
		g, err := Build(simnet.New(nPeers), nPeers, sample, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.BulkLoad(entries, workers); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, workers := range []int{1, 4} {
		sameStores(t, load(keySorted, workers), load(tieSorted, workers), nPeers)
	}
}

// TestBulkLoadIntoNonEmptyStores checks the incremental path: a second
// BulkLoad over a grid that already holds data merges into the stores
// exactly as routed inserts of both batches do.
func TestBulkLoadIntoNonEmptyStores(t *testing.T) {
	const nPeers = 32
	entries := bulkEntries(1000)
	sample := make([]keys.Key, len(entries))
	for i, e := range entries {
		sample[i] = e.Key
	}
	cfg := DefaultConfig()

	net := simnet.New(nPeers)
	g, err := Build(net, nPeers, sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refNet := simnet.New(nPeers)
	ref, err := Build(refNet, nPeers, sample, cfg)
	if err != nil {
		t.Fatal(err)
	}

	half := len(entries) / 2
	if err := g.BulkLoad(entries[:half], 4); err != nil {
		t.Fatal(err)
	}
	if err := g.BulkLoad(entries[half:], 4); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if err := ref.Insert(nil, simnet.NodeID(i%nPeers), e.Key, e.Posting); err != nil {
			t.Fatal(err)
		}
	}
	sameStores(t, g, ref, nPeers)
	for i := 0; i < 30; i++ {
		k := testKey(i * 13 % 334)
		got, err := g.Lookup(nil, simnet.NodeID(i%nPeers), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Lookup(nil, simnet.NodeID(i%nPeers), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("lookup %s after two batches: %d postings, want %d", k, len(got), len(want))
		}
	}
}

// TestBulkLoadThenMembershipChurn is the churn regression of the load
// pipeline: a grid populated through BulkLoad must survive Join/Leave/
// RefreshRefs with exact query results, i.e. bulk-built stores hand data
// over during splits exactly like incrementally grown ones.
func TestBulkLoadThenMembershipChurn(t *testing.T) {
	const nPeers, nItems = 48, 3000
	entries, sample := seqEntries(nItems)
	net := simnet.New(nPeers)
	g, err := Build(net, nPeers, sample, Config{Replication: 2, RefsPerLevel: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The batch arrives shuffled: BulkLoad sorts a copy and must leave the
	// caller's slice element-for-element as it was.
	rand.New(rand.NewSource(2)).Shuffle(len(entries), func(i, j int) {
		entries[i], entries[j] = entries[j], entries[i]
	})
	batch := slices.Clone(entries)
	if err := g.BulkLoad(batch, 8); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(batch, entries, func(a, b BulkEntry) bool { return compareEntries(&a, &b) == 0 }) {
		t.Fatal("BulkLoad reordered the caller's batch")
	}

	check := func(stage string) {
		t.Helper()
		for i := 0; i < nItems; i += 97 {
			res, err := g.Lookup(nil, g.RandomPeer(), testKey(i))
			if err != nil {
				t.Fatalf("%s: lookup %d: %v", stage, i, err)
			}
			if len(res) != 1 || res[0].Triple.OID != fmt.Sprintf("o%d", i) {
				t.Fatalf("%s: lookup %d returned %v", stage, i, res)
			}
		}
	}
	check("after load")

	rng := rand.New(rand.NewSource(4))
	joins, leaves := 0, 0
	for round := 0; round < 30; round++ {
		if rng.Intn(2) == 0 {
			if _, err := g.Join(nil); err != nil {
				t.Fatalf("join %d: %v", round, err)
			}
			joins++
		} else {
			id := g.RandomPeer()
			switch err := g.Leave(nil, id); err {
			case nil:
				leaves++
			case ErrSoleOwner, ErrDeparted:
			default:
				t.Fatalf("leave %d: %v", round, err)
			}
		}
		g.RefreshRefs()
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("churn mix degenerate: %d joins, %d leaves", joins, leaves)
	}
	check("after churn")

	// Postings survive with full multiplicity across the whole key range.
	var tally int
	for i := 0; i < nItems; i++ {
		res, err := g.Lookup(nil, g.RandomPeer(), testKey(i))
		if err != nil {
			t.Fatalf("final lookup %d: %v", i, err)
		}
		tally += len(res)
	}
	if tally != nItems {
		t.Fatalf("final sweep found %d postings, want %d", tally, nItems)
	}
}
