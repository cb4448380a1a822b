package repro_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// question is one cached read of the write-set tests: a similarity selection
// (instance level, or schema level when attr is empty) or, with topN > 0, a
// string top-N over the same operator.
type question struct {
	needle, attr string
	d, topN      int
}

func (q question) String() string {
	return fmt.Sprintf("similar(%q, attr %q, d %d, topN %d)", q.needle, q.attr, q.d, q.topN)
}

// twins is a cached engine beside an uncached one with the same seed, data
// and call sequence: their overlays evolve in lockstep, so at any point the
// uncached twin computes what the cached engine must answer.
type twins struct {
	t                *testing.T
	cached, uncached *core.Engine
}

func openTwins(t *testing.T, tuples []triples.Tuple, cfg core.Config) twins {
	t.Helper()
	cfg.Grid.Replication = 2
	cfg.Grid.RefsPerLevel = 3
	cfg.Grid.Seed = 9
	var engs [2]*core.Engine
	for i, cache := range []bool{true, false} {
		cfg.Cache = cache
		eng, err := core.Open(tuples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		engs[i] = eng
	}
	return twins{t: t, cached: engs[0], uncached: engs[1]}
}

// both applies one mutation to both engines.
func (tw twins) both(what string, do func(eng *core.Engine) error) {
	tw.t.Helper()
	for _, eng := range []*core.Engine{tw.cached, tw.uncached} {
		if err := do(eng); err != nil {
			tw.t.Fatalf("%s: %v", what, err)
		}
	}
}

func ask(eng *core.Engine, from simnet.NodeID, q question) ([]ops.Match, int64, error) {
	var tally metrics.Tally
	var ms []ops.Match
	var err error
	if q.topN > 0 {
		ms, err = eng.Store().TopNString(&tally, from, q.attr, q.needle, q.topN, q.d, ops.TopNOptions{})
	} else {
		ms, err = eng.Store().Similar(&tally, from, q.needle, q.attr, q.d, ops.SimilarOptions{})
	}
	return ms, tally.Snapshot().Messages, err
}

// check asks both engines, requires equal answers and returns the cached
// engine's answer and message cost.
func (tw twins) check(step string, from simnet.NodeID, q question) ([]ops.Match, int64) {
	tw.t.Helper()
	want, _, err := ask(tw.uncached, from, q)
	if err != nil {
		tw.t.Fatalf("%s: uncached %s: %v", step, q, err)
	}
	got, msgs, err := ask(tw.cached, from, q)
	if err != nil {
		tw.t.Fatalf("%s: cached %s: %v", step, q, err)
	}
	if !reflect.DeepEqual(got, want) {
		tw.t.Fatalf("%s: cached %s diverges from the uncached twin\n got %+v\nwant %+v", step, q, got, want)
	}
	return got, msgs
}

func hasOID(ms []ops.Match, oid string) bool {
	for _, m := range ms {
		if m.OID == oid {
			return true
		}
	}
	return false
}

// writeSetCorpus is 240 words under "word" — every sixth cut to 2-4 letters,
// below the q-gram guarantee threshold at d = 2, so those needles also read
// the short-value index by prefix scan — with a second attribute "ward" on
// every eighth object and "title" on every tenth, so schema-level questions
// have attribute names to find.
func writeSetCorpus() (tuples []triples.Tuple, words []string) {
	long := dataset.BibleWords(240, 17)
	for i, w := range long {
		if i%6 == 0 {
			w = w[:2+i/6%3]
		}
		words = append(words, w)
		pairs := []any{"word", w}
		if i%8 == 0 {
			pairs = append(pairs, "ward", long[(i+1)%len(long)])
		}
		if i%10 == 0 {
			pairs = append(pairs, "title", long[(i+2)%len(long)])
		}
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("o%04d", i), pairs...))
	}
	return tuples, words
}

// disjointEdit returns a string two substitutions from s — its first and last
// characters replaced — that shares no padded q-gram with it when s has at
// most four characters: a match only a prefix scan can find.
func disjointEdit(s string) string {
	swap := func(c byte) string {
		if c == 'q' {
			return "z"
		}
		return "q"
	}
	return swap(s[0]) + s[1:len(s)-1] + swap(s[len(s)-1])
}

// TestCacheWriteSetInvalidation is the contract of write-set invalidation on
// every executor, against an uncached twin after every step:
//
//   - scripted cases, one per kind of read-set entry — a write that shares
//     nothing with a hot answer leaves it served at zero messages, while a
//     write that reaches the answer only through a probe key, only through
//     the short-value scan, only through the attribute catalog, only through
//     an attribute scan, or only through a reconstructed oid is observed by
//     the very next read;
//   - a seeded interleaving of instance- and schema-level Similar at
//     d = 0, 1, 2 (short needles included), TopNString, InsertTuple,
//     DeleteTriple, Join, Leave and RefreshRefs.
func TestCacheWriteSetInvalidation(t *testing.T) {
	const peers = 32
	tuples, words := writeSetCorpus()
	var long, short string
	for _, w := range words {
		if long == "" && len(w) >= 8 && !strings.ContainsAny(w, "qz") {
			long = w
		}
		if short == "" && len(w) == 3 {
			short = w
		}
	}
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		t.Run(mode.String(), func(t *testing.T) {
			tw := openTwins(t, tuples, core.Config{Peers: peers, Runtime: mode})
			insert := func(oid string, pairs ...any) {
				tu := triples.MustTuple(oid, pairs...)
				tw.both("insert "+oid, func(eng *core.Engine) error { return eng.Store().InsertTuple(nil, 1, tu) })
			}
			remove := func(oid, attr, val string) {
				tr := triples.Triple{OID: oid, Attr: attr, Val: triples.String(val)}
				tw.both("delete "+oid, func(eng *core.Engine) error { return eng.Store().DeleteTriple(nil, 2, tr) })
			}
			warm := func(q question) {
				t.Helper()
				tw.check("warm-up", 3, q)
				if _, msgs := tw.check("warm-up repeat", 4, q); msgs != 0 {
					t.Fatalf("%s: the repeat sent %d messages, want 0", q, msgs)
				}
			}
			// observed asks q after a write it must see: not from the cache,
			// equal to the twin, and (when oid is set) holding the new object.
			observed := func(step string, q question, oid string) {
				t.Helper()
				ms, msgs := tw.check(step, 5, q)
				if msgs == 0 {
					t.Errorf("%s: %s was served from the cache across a write that touched it", step, q)
				}
				if oid != "" && !hasOID(ms, oid) {
					t.Errorf("%s: %s does not hold %s", step, q, oid)
				}
			}

			// A hot needle above the guarantee threshold reads probe keys and
			// oid keys only.
			hot := question{needle: long, attr: "word", d: 1}
			warm(hot)
			insert("far", "word", "qqzzqqzz") // shares no gram, no oid, no scan with hot
			if _, msgs := tw.check("after unrelated insert", 6, hot); msgs != 0 {
				t.Errorf("a write sharing nothing with %s cost its repeat %d messages, want 0", hot, msgs)
			}
			near := long[:len(long)-1] + "q" // one substitution: within d, through shared probe keys
			insert("near", "word", near)
			observed("after insert within d", hot, "near")
			warm(hot)
			// A new field on an object the answer holds reaches it through
			// the reconstructed oid alone.
			insert("near", "note", "qqzzqqzz")
			observed("after a new field on a matched object", hot, "near")
			warm(hot)
			remove("near", "word", near)
			observed("after delete within d", hot, "")

			// A short needle also reads the short-value index by prefix scan;
			// a value two edits away that shares no gram with it is found
			// there and nowhere else.
			brief := question{needle: short, attr: "word", d: 2}
			warm(brief)
			insert("scanned", "word", disjointEdit(short))
			observed("after insert only the short-value scan finds", brief, "scanned")

			// Schema level, short needle: the attribute catalog finds "ward"
			// (two edits from "xary", no shared gram) and its attribute scan
			// collects the objects carrying it.
			names := question{needle: "xary", attr: "", d: 2}
			if ms, _ := tw.check("schema warm-up", 3, names); len(ms) == 0 {
				t.Fatalf("%s found nothing: the catalog path went untested", names)
			}
			warm(names)
			insert("warded", "ward", "anything") // known attribute: no catalog write, only the attribute scan sees it
			observed("after insert only the attribute scan finds", names, "warded")
			warm(names)
			insert("yarded", "yard", "anything") // new attribute name two edits from the needle, no shared gram: only the catalog sees it
			observed("after insert only the catalog scan finds", names, "yarded")

			// Seeded interleaving.
			rng := rand.New(rand.NewSource(41))
			questions := []question{
				hot, brief, names,
				{needle: long, attr: "word", d: 0},
				{needle: long, attr: "word", d: 2},
				{needle: short, attr: "word", d: 1},
				{needle: "word", attr: "", d: 1},
				{needle: "wrd", attr: "", d: 2},
				{needle: long, attr: "word", d: 3, topN: 3},
				{needle: words[7], attr: "word", d: 2, topN: 2},
			}
			type written struct{ oid, val string }
			var live []written
			var joined []simnet.NodeID
			for step := 0; step < 120; step++ {
				from := simnet.NodeID(rng.Intn(peers))
				name := fmt.Sprintf("step %d", step)
				switch r := rng.Intn(10); {
				case r < 5:
					tw.check(name, from, questions[rng.Intn(len(questions))])
					continue
				case r < 7:
					w := written{oid: fmt.Sprintf("n%03d", step), val: words[rng.Intn(len(words))]}
					if rng.Intn(2) == 0 { // a value near a hot needle
						base := []string{long, short}[rng.Intn(2)]
						i := rng.Intn(len(base))
						w.val = base[:i] + string(rune('a'+rng.Intn(26))) + base[i+1:]
					}
					pairs := []any{"word", w.val}
					if rng.Intn(4) == 0 { // sometimes under a new attribute name too
						pairs = append(pairs, fmt.Sprintf("wor%c", 'a'+rng.Intn(26)), w.val)
					}
					insert(w.oid, pairs...)
					live = append(live, w)
				case r < 8:
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					remove(live[i].oid, "word", live[i].val)
					live = append(live[:i], live[i+1:]...)
				case r < 9 || len(joined) == 0:
					var ids [2]simnet.NodeID
					for j, eng := range []*core.Engine{tw.cached, tw.uncached} {
						id, _, err := eng.Join()
						if err != nil {
							t.Fatalf("%s: join: %v", name, err)
						}
						ids[j] = id
					}
					if ids[0] != ids[1] {
						t.Fatalf("%s: twin engines diverged: join ids %d vs %d", name, ids[0], ids[1])
					}
					joined = append(joined, ids[0])
				default:
					id := joined[len(joined)-1]
					joined = joined[:len(joined)-1]
					tw.both("leave", func(eng *core.Engine) error { return eng.Leave(id) })
					tw.both("refresh", func(eng *core.Engine) error { eng.RefreshRefs(); return nil })
				}
				for _, q := range questions {
					tw.check("after "+name, from, q)
				}
			}

			st := tw.cached.Store().CacheStats()
			if st.Results.Hits == 0 || st.Postings.Hits == 0 {
				t.Errorf("the schedule produced no cache hits: %+v", st)
			}
			if st.Results.Invalidated == 0 || st.Postings.Invalidated == 0 {
				t.Errorf("the schedule's writes invalidated nothing: %+v", st)
			}
		})
	}
}

// TestCacheConcurrentWriteIsNotCachedStale pins the order of a write's two
// halves: apply everywhere, then report to the caches. Two DES clients share
// the actor runtime's timeline; one inserts a tuple (a score of routed
// entries, one after another) while the other asks for exactly that value,
// so its probes land between the write's first and last entry and read the
// gram keys before the write reaches them. Whatever that concurrent read
// returned, it must not be cached as current: once both clients are done, the
// question is asked again and must hold the inserted object, as the uncached
// twin's answer does. (Reporting the write before applying it — the former
// order — lets the concurrent reader cache the pre-write postings and answer
// as valid, stale until the next write.)
func TestCacheConcurrentWriteIsNotCachedStale(t *testing.T) {
	tuples, words := writeSetCorpus()
	tw := openTwins(t, tuples, core.Config{Peers: 32, Runtime: core.RuntimeActor,
		Latency: asyncnet.DefaultLatency(1)})
	var needle string
	for _, w := range words {
		if len(w) >= 8 {
			needle = w
			break
		}
	}
	q := question{needle: needle, attr: "word", d: 0}
	fresh := triples.MustTuple("fresh", "word", needle)
	for _, eng := range []*core.Engine{tw.cached, tw.uncached} {
		errs := make([]error, 2)
		eng.Concurrent(2, func(client int) {
			if client == 0 {
				errs[0] = eng.Store().InsertTuple(nil, 3, fresh)
			} else {
				_, _, errs[1] = ask(eng, 5, q)
			}
		})
		for client, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", client, err)
			}
		}
	}
	if ms, _ := tw.check("after the concurrent insert", 7, q); !hasOID(ms, "fresh") {
		t.Errorf("%s does not hold the inserted object: %+v", q, ms)
	}
}
