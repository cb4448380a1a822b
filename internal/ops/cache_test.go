package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/qcache"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// measure runs one instance-level Similar under a fresh tally and returns
// the matches plus the query's own message cost.
func (f *fixture) measure(t *testing.T, needle string, d int, opts SimilarOptions) ([]Match, int64) {
	t.Helper()
	var tally metrics.Tally
	ms, err := f.store.Similar(&tally, 3, needle, "word", d, opts)
	if err != nil {
		t.Fatalf("similar(%q): %v", needle, err)
	}
	return ms, tally.Snapshot().Messages
}

// TestCacheServesRepeatsLocally: the second identical question answers from
// the initiator at zero message cost with an identical result, and a needle
// with no matches is negatively cached the same way.
func TestCacheServesRepeatsLocally(t *testing.T) {
	f := newWordFixture(t, 24, 300, StoreConfig{})
	f.store.EnableCache(CacheConfig{})
	opts := SimilarOptions{}

	needle := f.words[7]
	first, cold := f.measure(t, needle, 1, opts)
	if cold == 0 {
		t.Fatal("cold query sent no messages")
	}
	again, warm := f.measure(t, needle, 1, opts)
	if warm != 0 {
		t.Errorf("repeated query sent %d messages, want 0", warm)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("cached answer diverges:\n got %+v\nwant %+v", again, first)
	}

	// Negative caching: no matches is an answer too.
	if ms, cold := f.measure(t, "zzzzzzzzzz", 0, opts); len(ms) != 0 || cold == 0 {
		t.Fatalf("miss-needle cold query: %d matches, %d messages", len(ms), cold)
	}
	if _, warm := f.measure(t, "zzzzzzzzzz", 0, opts); warm != 0 {
		t.Errorf("repeated miss-needle query sent %d messages, want 0", warm)
	}

	st := f.store.CacheStats()
	if st.Results.Hits != 2 || st.Results.Misses != 2 {
		t.Errorf("result cache counted %d hits / %d misses, want 2 / 2", st.Results.Hits, st.Results.Misses)
	}
	if st.Postings.Puts == 0 || st.Postings.Bytes <= 0 {
		t.Errorf("posting cache never filled: %+v", st.Postings)
	}

	// On the virtual timeline a hit takes no time without a latency model
	// and one tick with one: after its start, before any link could answer.
	hitTime := func() int64 {
		var tally metrics.Tally
		if _, err := f.store.Similar(&tally, 3, needle, "word", 1, opts); err != nil {
			t.Fatal(err)
		}
		if tally.Messages != 0 {
			t.Fatalf("hit sent %d messages", tally.Messages)
		}
		return tally.Latency
	}
	if got := hitTime(); got != 0 {
		t.Errorf("hit without a latency model completed at %dµs, want 0", got)
	}
	f.net.SetLatency(func(_, _ simnet.NodeID, _ int) simnet.VTime { return 20_000 })
	if got := hitTime(); got != int64(localAnswerVTime) {
		t.Errorf("hit under a latency model completed at %dµs, want %d", got, localAnswerVTime)
	}
}

// TestCacheSharesProbeKeysAcrossNeedles: distinct needles sharing q-grams
// reuse each other's posting-cache entries, so the second needle's wire cost
// drops below its uncached cost even though its result was never cached.
func TestCacheSharesProbeKeysAcrossNeedles(t *testing.T) {
	words := []string{"gridstorm", "gridstone", "flankpath", "flankpeak"}
	uncached := newFixtureFromWords(t, 16, words, StoreConfig{})
	cached := newFixtureFromWords(t, 16, words, StoreConfig{})
	cached.store.EnableCache(CacheConfig{})
	opts := SimilarOptions{NoShortFallback: true}

	_, _ = cached.measure(t, "gridstorm", 1, opts)
	_, baseline := uncached.measure(t, "gridstone", 1, opts)
	got, shared := cached.measure(t, "gridstone", 1, opts)
	want, _ := uncached.measure(t, "gridstone", 1, opts)
	if shared >= baseline {
		t.Errorf("overlapping needle cost %d messages with a warm posting cache, uncached %d", shared, baseline)
	}
	if !reflect.DeepEqual(matchOIDs(got), matchOIDs(want)) {
		t.Errorf("warm-cache answer diverges from uncached: %v vs %v", matchOIDs(got), matchOIDs(want))
	}
}

// TestCacheInvalidatedByWrites: a routed insert or delete lands on keys the
// cached answer read, so the next query refetches and observes the write.
func TestCacheInvalidatedByWrites(t *testing.T) {
	f := newWordFixture(t, 24, 200, StoreConfig{})
	f.store.EnableCache(CacheConfig{})
	opts := SimilarOptions{}
	needle := f.words[11]

	before, _ := f.measure(t, needle, 0, opts)
	if _, warm := f.measure(t, needle, 0, opts); warm != 0 {
		t.Fatalf("repeat sent %d messages before the write", warm)
	}

	// Insert a new object carrying the needle itself: the cached answer is
	// now stale, and serving it would lose the write.
	tr := triples.Triple{OID: "wNEW", Attr: "word", Val: triples.String(needle)}
	if err := f.store.InsertTriple(nil, 3, tr); err != nil {
		t.Fatal(err)
	}
	after, cost := f.measure(t, needle, 0, opts)
	if cost == 0 {
		t.Error("query after insert was served from the cache")
	}
	if len(after) != len(before)+1 || !matchOIDs(after)["wNEW"] {
		t.Errorf("query after insert returned %v, want %v plus wNEW", matchOIDs(after), matchOIDs(before))
	}

	if _, warm := f.measure(t, needle, 0, opts); warm != 0 {
		t.Fatalf("repeat after refill sent messages")
	}
	if err := f.store.DeleteTriple(nil, 3, tr); err != nil {
		t.Fatal(err)
	}
	final, cost := f.measure(t, needle, 0, opts)
	if cost == 0 {
		t.Error("query after delete was served from the cache")
	}
	if !reflect.DeepEqual(matchOIDs(final), matchOIDs(before)) {
		t.Errorf("delete not observed: %v, want %v", matchOIDs(final), matchOIDs(before))
	}
}

// TestCacheSurvivesMembership: Join, Leave and RefreshRefs hand postings over
// unchanged, so they invalidate nothing — a repeated question is still served
// locally at zero messages afterwards, and what it is served equals what an
// uncached twin store computes on the churned overlay.
func TestCacheSurvivesMembership(t *testing.T) {
	gcfg := pgrid.DefaultConfig()
	gcfg.Replication = 2 // a graceful leave needs a replica to stay behind
	words := testWords(200)
	cached := wordFixture(t, 24, words, StoreConfig{}, gcfg)
	twin := wordFixture(t, 24, words, StoreConfig{}, gcfg)
	cached.store.EnableCache(CacheConfig{})
	opts := SimilarOptions{}
	needle := words[23]

	if _, cold := cached.measure(t, needle, 1, opts); cold == 0 {
		t.Fatal("cold query sent no messages")
	}
	churn := []struct {
		name string
		do   func(g *pgrid.Grid) error
	}{
		{"join", func(g *pgrid.Grid) error { _, err := g.Join(nil); return err }},
		{"join", func(g *pgrid.Grid) error { _, err := g.Join(nil); return err }},
		{"refresh", func(g *pgrid.Grid) error { g.RefreshRefs(); return nil }},
		{"leave", func(g *pgrid.Grid) error { return g.Leave(nil, simnet.NodeID(g.PeerCount()-1)) }},
	}
	epoch := cached.store.grid.Epoch()
	for _, c := range churn {
		for _, f := range []*fixture{cached, twin} {
			if err := c.do(f.store.grid); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		got, cost := cached.measure(t, needle, 1, opts)
		if cost != 0 {
			t.Errorf("after %s the repeated query sent %d messages, want 0", c.name, cost)
		}
		if want, _ := twin.measure(t, needle, 1, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("after %s the cached answer diverges from the uncached twin:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
	if cached.store.grid.Epoch() == epoch {
		t.Fatal("the churn never advanced the epoch")
	}
	if st := cached.store.CacheStats(); st.Results.Invalidations != 0 || st.Postings.Invalidations != 0 {
		t.Errorf("membership changes were counted as invalidations: %+v", st)
	}
}

// TestCacheBypassedByNaive: the naive baseline measures the uncached wire
// protocol, so it must never hit either cache.
func TestCacheBypassedByNaive(t *testing.T) {
	f := newWordFixture(t, 24, 120, StoreConfig{})
	f.store.EnableCache(CacheConfig{})
	needle := f.words[5]
	opts := SimilarOptions{Method: MethodNaive}
	first, _ := f.measure(t, needle, 1, opts)
	second, cost := f.measure(t, needle, 1, opts)
	if cost == 0 {
		t.Error("repeat was served from the cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated naive queries diverge")
	}
	if st := f.store.CacheStats(); st.Results.Hits != 0 || st.Postings.Hits != 0 {
		t.Errorf("naive queries hit the caches: %+v", st)
	}
}

// TestCacheEvictionIsDeterministic: the same byte bounds, seed and sequence
// of queries and writes evict and invalidate the same entries — invalidation
// walks the entry list, never a map — so cached runs replay exactly: the same
// counters and the same total message count.
func TestCacheEvictionIsDeterministic(t *testing.T) {
	run := func() (CacheStats, int64, map[string]bool) {
		f := newWordFixture(t, 16, 150, StoreConfig{})
		// Bounds small enough that both caches must evict.
		f.store.EnableCache(CacheConfig{PostingBytes: 16 << 10, ResultBytes: 3 << 10, Seed: 42})
		rng := rand.New(rand.NewSource(5))
		last := map[string]bool{}
		var tally metrics.Tally
		for i := 0; i < 90; i++ {
			from := simnet.NodeID(rng.Intn(16))
			word := f.words[rng.Intn(30)] // a small hot set, so entries are live when a write hits them
			switch i % 6 {
			case 3:
				tr := triples.Triple{OID: fmt.Sprintf("x%03d", i), Attr: "word", Val: triples.String(word)}
				if err := f.store.InsertTriple(&tally, from, tr); err != nil {
					t.Fatal(err)
				}
			case 5:
				tr := triples.Triple{OID: fmt.Sprintf("x%03d", i-2), Attr: "word", Val: triples.String(f.words[0])}
				_ = f.store.DeleteTriple(&tally, from, tr) // whether it finds the posting does not matter here
			default:
				ms, err := f.store.Similar(&tally, from, word, "word", 1, SimilarOptions{})
				if err != nil {
					t.Fatal(err)
				}
				last = matchOIDs(ms)
			}
		}
		return f.store.CacheStats(), tally.Snapshot().Messages, last
	}
	a, msgsA, lastA := run()
	if a.Postings.Evictions == 0 || a.Results.Evictions == 0 {
		t.Fatalf("the byte bounds never evicted: %+v", a)
	}
	if a.Postings.Invalidated == 0 || a.Results.Invalidated == 0 {
		t.Fatalf("the writes invalidated nothing: %+v", a)
	}
	for i := 0; i < 3; i++ {
		b, msgsB, lastB := run()
		if a != b {
			t.Errorf("cache counters diverge across identical runs:\n a=%+v\n b=%+v", a, b)
		}
		if msgsA != msgsB {
			t.Errorf("message counts diverge across identical runs: %d vs %d", msgsA, msgsB)
		}
		if !reflect.DeepEqual(lastA, lastB) {
			t.Errorf("results diverge across identical runs")
		}
	}
}

// lossyFixture is a replicated fixture with the grid's retry policy enabled,
// so queries on a faulted fabric degrade (partial answers, unanswered probes)
// instead of erroring — the regime the cache's degraded-answer valve guards.
func lossyFixture(t *testing.T, nPeers int, words []string) *fixture {
	t.Helper()
	gcfg := pgrid.DefaultConfig()
	gcfg.Replication = 2
	gcfg.Retry = pgrid.RetryConfig{Enabled: true, MaxAttempts: 2, Backoff: 1}
	return wordFixture(t, nPeers, words, StoreConfig{}, gcfg)
}

// TestCacheSkipsDegradedAnswers: an answer assembled while probes went
// unanswered (total loss, retry budget exhausted) must not enter either
// cache — once the fabric heals, the same question hits the wire again and
// returns the complete answer, not a cached degraded one.
func TestCacheSkipsDegradedAnswers(t *testing.T) {
	f := lossyFixture(t, 16, []string{"gridstorm", "gridstone", "flankpath", "flankpeak", "mudranger"})
	f.store.EnableCache(CacheConfig{})
	opts := SimilarOptions{NoShortFallback: true}

	// Degrade: every message is lost; the query returns without error but
	// with unanswered probes, and nothing may be cached.
	f.net.SetFaults(&simnet.FaultPlan{DropRate: 1, Seed: 3})
	degraded, _ := f.measure(t, "gridstone", 1, opts)
	if st := f.store.CacheStats(); st.Results.Puts != 0 || st.Postings.Puts != 0 {
		t.Fatalf("degraded answer entered a cache: %+v", st)
	}
	if s := f.store.grid.RobustStats(); s.Unanswered == 0 {
		t.Fatalf("total loss degraded nothing (answer %d matches) — the valve went untested", len(degraded))
	}

	// Heal the fabric: the same question must hit the wire and answer fully.
	f.net.SetFaults(nil)
	healed, msgs := f.measure(t, "gridstone", 1, opts)
	if msgs == 0 {
		t.Fatal("healed query sent no messages: a degraded answer was served from cache")
	}
	if !reflect.DeepEqual(matchOIDs(healed), f.bruteSimilar("gridstone", 1)) {
		t.Errorf("healed answer %v diverges from oracle %v", matchOIDs(healed), f.bruteSimilar("gridstone", 1))
	}

	// And now the complete answer is cacheable again.
	if _, warm := f.measure(t, "gridstone", 1, opts); warm != 0 {
		t.Errorf("repeat after healing sent %d messages, want 0 (cached)", warm)
	}
}

// liveHeap is HeapAlloc after two forced collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCacheBytesBoundHeap: the byte bounds bound the heap. Both caches are
// filled to their default bounds with entries shaped like the ones similarity
// traffic leaves behind — one-posting oid lists beside gram lists of tens of
// postings; answers of a few matches whose read sets run from a dozen hashes
// to a thousand — and the live heap may grow by at most 1.5 x the bytes the
// caches account. The strings inside are allocated before the baseline: in
// this one-process simulator a cached posting shares them with the store it
// came from.
func TestCacheBytesBoundHeap(t *testing.T) {
	f := newWordFixture(t, 4, 8, StoreConfig{})
	rng := rand.New(rand.NewSource(3))
	pool := make([]string, 4096)
	for i := range pool {
		pool[i] = fmt.Sprintf("w%05d-%03d", i, rng.Intn(1000))
	}
	str := func() string { return pool[rng.Intn(len(pool))] }

	f.store.EnableCache(CacheConfig{})
	pc, rc := f.store.cache.postings, f.store.cache.results
	check := func(name string, before int64, st qcache.Stats, bound int) {
		t.Helper()
		grown := liveHeap() - before
		if st.Bytes < int64(bound)*9/10 {
			t.Fatalf("%s cache holds %d accounted bytes, not filled to its bound of %d: %+v", name, st.Bytes, bound, st)
		}
		t.Logf("%s cache: heap grew %d B for %d accounted B (x%.2f) in %d entries",
			name, grown, st.Bytes, float64(grown)/float64(st.Bytes), st.Entries)
		if grown > st.Bytes*3/2 {
			t.Errorf("%s cache: heap grew %d B, over 1.5 x the %d B it accounts", name, grown, st.Bytes)
		}
	}

	before := liveHeap()
	for i := 0; pc.Stats().Evictions == 0; i++ {
		n := 1
		if i%5 == 0 {
			n = 2 + rng.Intn(60)
		}
		ps := make([]triples.Posting, n)
		for j := range ps {
			ps[j] = triples.Posting{Index: triples.IndexOID, GramText: str(), GramPos: j, SrcLen: 9,
				Triple: triples.Triple{OID: str(), Attr: "word", Val: triples.String(str())}}
		}
		pc.Put(pc.Gen(), postingKeyOf(triples.OIDKey(fmt.Sprintf("o%07d", i))), ps)
	}
	check("posting", before, pc.Stats(), DefaultPostingCacheBytes)

	before = liveHeap()
	for i := 0; rc.Stats().Evictions == 0; i++ {
		ms := make([]Match, rng.Intn(6))
		for j := range ms {
			fields := []triples.Field{{Name: "word", Val: triples.String(str())}}
			ms[j] = Match{OID: str(), Attr: "word", Matched: str(), Distance: 1,
				Object: triples.Tuple{OID: str(), Fields: fields}}
		}
		reads := new(readSet)
		for j, n := 0, 12+rng.Intn(1000)*(i%2); j < n; j++ {
			reads.hashes = append(reads.hashes, rng.Uint64())
		}
		key := resultCacheKey{needle: fmt.Sprintf("needle%07d", i), attr: "word", d: 1}
		rc.Put(rc.Gen(), key, answer{matches: ms, reads: reads.sorted()})
	}
	check("result", before, rc.Stats(), DefaultResultCacheBytes)
	runtime.KeepAlive(pool)
	runtime.KeepAlive(f)
}

// TestCacheConcurrentReadersAndWriter: readers on several goroutines keep
// asking a hot set through the caches while a writer inserts and deletes
// values the hot answers depend on. Whatever the readers cached while writes
// were in flight, once everything has finished every hot question must answer
// as an uncached twin that applied the same writes — no stale entry survives
// a write's report — and the race detector must stay silent.
func TestCacheConcurrentReadersAndWriter(t *testing.T) {
	words := testWords(150)
	cached := newFixtureFromWords(t, 16, words, StoreConfig{})
	twin := newFixtureFromWords(t, 16, words, StoreConfig{})
	cached.store.EnableCache(CacheConfig{})
	hot := words[:8]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cached.store.Similar(nil, simnet.NodeID(r), hot[(i+r)%len(hot)], "word", 1, SimilarOptions{}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		tr := triples.Triple{OID: fmt.Sprintf("c%02d", i), Attr: "word", Val: triples.String(hot[i%len(hot)])}
		for _, f := range []*fixture{cached, twin} {
			if err := f.store.InsertTriple(nil, 5, tr); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := f.store.DeleteTriple(nil, 6, tr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	for _, needle := range hot {
		got, _ := cached.measure(t, needle, 1, SimilarOptions{})
		want, _ := twin.measure(t, needle, 1, SimilarOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("similar(%q) after the concurrent writes diverges from the uncached twin:\n got %+v\nwant %+v", needle, got, want)
		}
	}
	if st := cached.store.CacheStats(); st.Results.Hits == 0 || st.Results.Invalidated == 0 {
		t.Errorf("the readers never hit, or the writes never invalidated: %+v", st)
	}
}
