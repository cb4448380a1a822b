package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

func simnetID(i int) simnet.NodeID { return simnet.NodeID(i) }

func demoData() []triples.Tuple {
	var out []triples.Tuple
	makes := []string{"BMW", "Audi", "Opel", "Volvo"}
	for i := 0; i < 20; i++ {
		out = append(out, triples.MustTuple(fmt.Sprintf("car%02d", i),
			"name", makes[i%len(makes)],
			"hp", float64(80+10*i),
			"price", float64(15000+2000*i)))
	}
	return out
}

func TestOpenAndQuery(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`SELECT ?n,?h WHERE { (?o,name,?n) (?o,hp,?h)
		FILTER (dist(?n,'BMV') < 2) } ORDER BY ?h DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Str != "BMW" {
			t.Errorf("name = %q", r[0].Str)
		}
	}
}

func TestQueryMeasured(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, tally, err := eng.QueryMeasured(`SELECT ?n WHERE { (?o,name,?n) FILTER (dist(?n,'BMW') < 1) }`)
	if err != nil {
		t.Fatal(err)
	}
	if tally.Messages == 0 {
		t.Error("no messages accounted")
	}
}

func TestExplain(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain(`SELECT ?n WHERE { (?o,name,?n) FILTER (dist(?n,'BMW') < 2) }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "SimilarScan") {
		t.Errorf("explain = %s", ex)
	}
	if _, err := eng.Explain("not vql"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestOperatorPassthroughs(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := eng.Similar("Audi", "name", 1)
	if err != nil || len(ms) == 0 {
		t.Errorf("Similar = %v, %v", ms, err)
	}
	top, err := eng.TopN("hp", 3, ops.RankMax, 0)
	if err != nil || len(top) != 3 || top[0].Value != 270 {
		t.Errorf("TopN = %v, %v", top, err)
	}
	nn, err := eng.TopNString("name", "Opol", 2, 3)
	if err != nil || len(nn) != 2 || nn[0].Matched != "Opel" {
		t.Errorf("TopNString = %v, %v", nn, err)
	}
	pairs, err := eng.SimJoin("name", "name", 0)
	if err != nil || len(pairs) == 0 {
		t.Errorf("SimJoin = %d pairs, %v", len(pairs), err)
	}
}

func TestInsertDelete(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Insert(triples.MustTuple("carX", "name", "Lada", "hp", 75.0)); err != nil {
		t.Fatal(err)
	}
	ms, err := eng.Similar("Lada", "name", 0)
	if err != nil || len(ms) != 1 {
		t.Fatalf("after insert: %v, %v", ms, err)
	}
	if err := eng.Delete(triples.Triple{OID: "carX", Attr: "name", Val: triples.String("Lada")}); err != nil {
		t.Fatal(err)
	}
	ms, err = eng.Similar("Lada", "name", 0)
	if err != nil || len(ms) != 0 {
		t.Fatalf("after delete: %v, %v", ms, err)
	}
}

func TestStats(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Grid.Peers != 16 {
		t.Errorf("grid peers = %d", s.Grid.Peers)
	}
	if s.Storage.Triples != 60 { // 20 tuples x 3 attrs
		t.Errorf("triples = %d", s.Storage.Triples)
	}
	if s.Network.Messages != 0 {
		t.Errorf("load phase counted: %+v", s.Network)
	}
}

func TestOpenRejectsBadData(t *testing.T) {
	bad := []triples.Tuple{{OID: "x#y", Fields: []triples.Field{{Name: "a", Val: triples.Number(1)}}}}
	if _, err := Open(bad, Config{Peers: 4}); err == nil {
		t.Error("invalid oid accepted")
	}
}

func TestDefaultConfig(t *testing.T) {
	eng, err := Open(demoData(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Config().Peers != 64 {
		t.Errorf("default peers = %d", eng.Config().Peers)
	}
}

// TestPartialGridConfigSurvives: a Grid config that leaves the structural
// fields zero gets only those (and the seed) from pgrid.DefaultConfig; the
// routing and retry settings the caller made reach the built grid.
func TestPartialGridConfigSurvives(t *testing.T) {
	grid := pgrid.Config{LatencyAwareRefs: true, Retry: pgrid.RetryConfig{Enabled: true, MaxAttempts: 7}}
	eng, err := Open(demoData(), Config{Peers: 16, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	got, def := eng.Grid().Config(), pgrid.DefaultConfig()
	if !got.LatencyAwareRefs {
		t.Error("LatencyAwareRefs reset by normalize")
	}
	if got.Retry != grid.Retry {
		t.Errorf("Retry = %+v, want %+v", got.Retry, grid.Retry)
	}
	if got.Replication != def.Replication || got.RefsPerLevel != def.RefsPerLevel || got.Seed != def.Seed {
		t.Errorf("structural fields = %+v, want DefaultConfig's", got)
	}
}

func TestJoinAndLeave(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, tally, err := eng.Join()
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 8 {
		t.Errorf("joined id = %d", id)
	}
	if tally.Bytes == 0 {
		t.Error("join handover not accounted")
	}
	// Data remains fully queryable after the join.
	res, err := eng.Query(`SELECT ?n WHERE { (?o,name,?n) FILTER (?n = 'BMW') }`)
	if err != nil || len(res.Rows) != 5 {
		t.Fatalf("query after join = %v, %v", res, err)
	}
	// A peer with a replica can leave; the new peer split a partition so it
	// may be a sole owner — join again into the same partition to create a
	// replica, then leave.
	id2, _, err := eng.Join()
	if err != nil {
		t.Fatal(err)
	}
	_ = id2
	// Find any peer with replicas and remove it.
	var victim = -1
	for i := 0; i < eng.Grid().PeerCount(); i++ {
		p, err := eng.Grid().Peer(simnetID(i))
		if err == nil && len(p.Replicas()) > 0 {
			victim = i
			break
		}
	}
	if victim >= 0 {
		if err := eng.Leave(simnetID(victim)); err != nil {
			t.Fatalf("Leave(%d): %v", victim, err)
		}
		res, err := eng.Query(`SELECT ?n WHERE { (?o,name,?n) FILTER (?n = 'BMW') }`)
		if err != nil || len(res.Rows) != 5 {
			t.Fatalf("query after leave = %v, %v", res, err)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	eng, err := Open(demoData(), Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := eng.Query(`SELECT ?n WHERE { (?o,name,?n) FILTER (dist(?n,'BMW') < 2) }`)
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
