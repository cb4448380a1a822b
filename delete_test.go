package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// TestDeleteRemovesOnlyItsOwnPosting deletes one triple of an object whose
// other triple shares an index key with it: both triples of o1 sit under
// OIDKey(o1), and both triples of o2 carry the same value, so both sit under
// ValueKey(same). Each delete names the second of the pair, so a delete that
// takes the first posting of the object under the key fails here. The delete
// must take out the deleted triple's posting and leave its sibling's, on
// every replica (replication 2) and on both executors.
func TestDeleteRemovesOnlyItsOwnPosting(t *testing.T) {
	data := []triples.Tuple{
		triples.MustTuple("o1", "a", "alpha", "b", "beta"),
		triples.MustTuple("o2", "x", "same", "y", "same"),
	}
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Config{Peers: 8, Runtime: mode}
			cfg.Grid = pgrid.Config{Replication: 2, RefsPerLevel: 2, Seed: 1}
			eng, err := core.Open(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []triples.Triple{
				{OID: "o1", Attr: "b", Val: triples.String("beta")},
				{OID: "o2", Attr: "y", Val: triples.String("same")},
			} {
				if err := eng.Delete(tr); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []struct {
				name string
				key  keys.Key
				want triples.Triple
			}{
				{"oid key", triples.OIDKey("o1"), triples.Triple{OID: "o1", Attr: "a", Val: triples.String("alpha")}},
				{"value key", triples.ValueKey(triples.String("same")), triples.Triple{OID: "o2", Attr: "x", Val: triples.String("same")}},
			} {
				// A store holds only keys its partition owns: the peers
				// holding anything under the key are its replicas, and each
				// must hold exactly the surviving sibling.
				replicas := 0
				for id := 0; id < eng.Grid().PeerCount(); id++ {
					p, err := eng.Grid().Peer(simnet.NodeID(id))
					if err != nil {
						t.Fatal(err)
					}
					got := p.LocalPrefix(c.key)
					if len(got) == 0 {
						continue
					}
					replicas++
					if len(got) != 1 || got[0].Triple != c.want {
						t.Errorf("%s: peer %d holds %v, want only %s", c.name, id, got, c.want)
					}
				}
				if replicas == 0 {
					t.Errorf("%s: no peer holds %s any more", c.name, c.want)
				}
			}
		})
	}
}
