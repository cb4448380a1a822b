package ops

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/qcache"
	"repro/internal/simnet"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// Match is one result of a similarity operator: an object whose attribute
// value (instance level) or attribute name (schema level) lies within the
// requested edit distance of the needle.
type Match struct {
	// OID identifies the matching object.
	OID string
	// Attr is the attribute whose value matched (instance level) or the
	// matching attribute name itself (schema level).
	Attr string
	// Matched is the string that satisfied the distance predicate.
	Matched string
	// Distance is its edit distance to the needle.
	Distance int
	// Object is the reconstructed complete tuple (Algorithm 2 builds the
	// "complete object o from T'").
	Object triples.Tuple
}

// SimilarOptions tunes the Similar operator.
type SimilarOptions struct {
	// Method selects naive / q-grams / q-samples (default q-grams).
	Method Method
	// NoShortFallback disables the short-string side scans even when the
	// store maintains them, reproducing the paper's Algorithm 2 verbatim
	// (which can miss matches below the guarantee threshold).
	NoShortFallback bool
}

// queryScratch holds the reusable buffers of one similarity-query phase: the
// flattened oid set, the key batch of a fetch, and the posting merge buffer.
// Pooled on the Store (qscratch) — the query-path allocation diet.
type queryScratch struct {
	oids     []string
	keys     []keys.Key
	postings []triples.Posting
}

func (s *Store) getQueryScratch() *queryScratch   { return s.qscratch.Get().(*queryScratch) }
func (s *Store) putQueryScratch(qs *queryScratch) { s.qscratch.Put(qs) }

// Similar implements Algorithm 2: it returns all objects with a value of
// attribute attr within edit distance d of needle (instance level), or — when
// attr is empty — all objects having an attribute whose *name* is within
// distance d (schema level). from is the initiating peer p.
func (s *Store) Similar(t *metrics.Tally, from simnet.NodeID, needle, attr string, d int, opts SimilarOptions) ([]Match, error) {
	ms, _, err := s.similarAt(t, from, needle, attr, d, opts, simnet.VTime(t.PathEnd()))
	return ms, err
}

// localAnswerVTime is what an answer served from the result cache takes on the
// virtual timeline when a latency model is installed: one tick, the smallest
// positive duration. The model prices links, not processing, so a local answer
// costs nothing more — but it completes after it was asked, not in the same
// instant: the client's timeline advances, the latency histogram (which skips
// tallies with neither a hop nor a completion time) counts the hit, and a
// latency quantile over a mostly-cached workload reads the hit time instead of
// degenerating to 0, which no ratio against it survives. Without a latency
// model every completion time is 0 and stays 0.
const localAnswerVTime simnet.VTime = 1

// similarAt is Similar with an explicit virtual start time, returning the
// operator's completion time so callers (e.g. the similarity join) can fan
// several selections out from one fork point.
//
// When the result cache is enabled, the whole answer is served locally at
// zero message cost if the identical question (needle, attr, d, method,
// short-fallback setting) was answered before and no write has since landed
// on anything that evaluation read (see cache.go). The naive baseline
// bypasses both caches: it exists to measure the uncached wire protocol.
func (s *Store) similarAt(t *metrics.Tally, from simnet.NodeID, needle, attr string, d int,
	opts SimilarOptions, start simnet.VTime) ([]Match, simnet.VTime, error) {

	if d < 0 {
		return nil, start, fmt.Errorf("ops: negative distance %d", d)
	}
	c := s.cache
	if c == nil || c.results == nil || opts.Method == MethodNaive {
		return s.similarUncachedAt(t, from, needle, attr, d, opts, nil, start)
	}
	key := resultCacheKey{needle: needle, attr: attr, d: d, method: opts.Method, noShort: opts.NoShortFallback}
	if a, ok := c.results.Get(key); ok {
		end := start
		if s.grid.Net().Latency() != nil {
			end += localAnswerVTime
		}
		t.ObservePath(0, int64(end))
		return copyMatches(a.matches), end, nil
	}
	gen := c.results.Gen() // before the first overlay read: see qcache
	reads := new(readSet)
	pre := s.grid.RobustStats().Unanswered
	ms, end, err := s.similarUncachedAt(t, from, needle, attr, d, opts, reads, start)
	if err == nil && s.grid.RobustStats().Unanswered == pre {
		// Cache a private copy: callers sort and truncate the returned
		// top-level slice (TopNString does both). Degraded answers — a probe
		// left unanswered after the retry policy gave up on a lossy fabric —
		// never enter the cache: they may be missing matches, and a cached
		// answer must be byte-identical to a fault-free one. The counter
		// check is conservative under concurrent queries (another query's
		// degradation also skips this Put), which costs hit ratio, never
		// correctness.
		c.results.Put(gen, key, answer{matches: copyMatches(ms), reads: reads.sorted()})
	}
	return ms, end, err
}

// similarUncachedAt evaluates Algorithm 2 on the overlay. The candidate
// phases — the q-gram multicast and the short-string fallback scan — are
// independent branch expansions: on the actor engine they are issued
// asynchronously onto the shared discrete-event timeline (so sibling phases
// contend in peer mailboxes like any concurrent operations), and their
// candidate sets merge afterwards. reads, when non-nil, records the
// evaluation's read set for the result cache.
func (s *Store) similarUncachedAt(t *metrics.Tally, from simnet.NodeID, needle, attr string, d int,
	opts SimilarOptions, reads *readSet, start simnet.VTime) ([]Match, simnet.VTime, error) {

	schema := attr == ""
	if opts.Method == MethodNaive {
		return s.similarNaiveAt(t, from, needle, attr, d, start)
	}
	withShort := !opts.NoShortFallback && !s.cfg.DisableShortIndex &&
		len(needle) < s.scheme.ShortThreshold(d)

	var gramOids, shortOids map[string]bool
	var gramErr, shortErr error
	branches := 1
	if withShort {
		branches = 2
	}
	end := s.grid.Fanout(start, branches, func(i int, st simnet.VTime) simnet.VTime {
		if i == 0 {
			var e simnet.VTime
			gramOids, e, gramErr = s.probeCandidates(t, from, needle, attr, d, opts, reads, st)
			return e
		}
		var e simnet.VTime
		shortOids, e, shortErr = s.shortCandidates(t, from, needle, attr, d, reads, st)
		return e
	})
	if gramErr != nil {
		return nil, end, gramErr
	}
	if shortErr != nil {
		return nil, end, shortErr
	}
	oids := gramOids
	for oid := range shortOids {
		oids[oid] = true
	}
	objects, end, err := s.reconstructSetAt(t, from, oids, false, reads, end)
	if err != nil {
		return nil, end, err
	}
	return verifyMatches(objects, needle, attr, d, schema), end, nil
}

// probeCandidates performs lines 1-9 of Algorithm 2 through the key scheme:
// plan the needle's probe keys (every q-gram or a q-sample), retrieve all
// postings matching any of them with one batched multicast, and keep the
// oids the scheme's candidate predicate accepts (position and length
// filters).
func (s *Store) probeCandidates(t *metrics.Tally, from simnet.NodeID, needle, attr string, d int,
	opts SimilarOptions, reads *readSet, start simnet.VTime) (map[string]bool, simnet.VTime, error) {
	probes := s.scheme.Probes(attr, needle, d, opts.Method == MethodQSamples)
	reads.addKeys(probes.Keys)

	qs := s.getQueryScratch()
	defer s.putQueryScratch(qs)
	postings, end, err := s.fetch(t, from, probes.Keys, probes.KeyOf, qs.postings[:0], start)
	if err != nil {
		return nil, end, err
	}
	qs.postings = postings[:0]
	oids := make(map[string]bool)
	for _, p := range postings {
		if p.Index != probes.Kind || !probes.Accept(p) {
			continue
		}
		oids[p.Triple.OID] = true
	}
	return oids, end, nil
}

// fetch retrieves postings for a key batch with the shower-style multicast.
//
// With the posting cache enabled (and a keyOf attribution function — see
// keyscheme.ProbeSet.KeyOf), hot keys are served locally and only the misses
// travel as a partial-batch multicast. dst, when non-nil, is the caller's
// pooled merge buffer; the returned slice may alias it (or, on the
// pass-through path, be a fresh slice from the executor).
func (s *Store) fetch(t *metrics.Tally, from simnet.NodeID, ks []keys.Key,
	keyOf func(triples.Posting) (keys.Key, bool),
	dst []triples.Posting, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {

	if c := s.cache; c != nil && c.postings != nil && keyOf != nil {
		return s.fetchCached(c.postings, t, from, ks, keyOf, dst, start)
	}
	return s.grid.MultiLookupAt(t, from, ks, start)
}

// fetchCached is the posting-cache path of fetch: cached keys answer from
// the initiator at zero message cost, the misses go out as one partial-batch
// multicast, and the flat miss result is partitioned back into per-key cache
// entries via keyOf (keys that returned nothing cache as empty — negative
// caching). A posting keyOf cannot attribute to a missed key disqualifies
// the whole batch from caching; the fetch result itself is unaffected, so
// the valve trades hit ratio for correctness, never the reverse.
func (s *Store) fetchCached(pc *qcache.Cache[postingCacheKey, []triples.Posting],
	t *metrics.Tally, from simnet.NodeID, ks []keys.Key,
	keyOf func(triples.Posting) (keys.Key, bool),
	dst []triples.Posting, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {

	gen := pc.Gen() // before the multicast reads the overlay: see qcache
	out := dst
	var missed []keys.Key
	for _, k := range ks {
		if ps, ok := pc.Get(postingKeyOf(k)); ok {
			out = append(out, ps...)
		} else {
			missed = append(missed, k)
		}
	}
	if len(missed) == 0 {
		// Every key served locally: zero messages, zero elapsed time.
		t.ObservePath(0, int64(start))
		return out, start, nil
	}
	pre := s.grid.RobustStats().Unanswered
	ps, end, err := s.grid.MultiLookupAt(t, from, missed, start)
	if err != nil {
		return nil, end, err
	}
	perKey := make(map[postingCacheKey][]triples.Posting, len(missed))
	for _, k := range missed {
		perKey[postingKeyOf(k)] = nil
	}
	// A multicast that degraded (a branch left unanswered on a lossy fabric)
	// may be missing postings; caching it would poison every later hit.
	cacheable := s.grid.RobustStats().Unanswered == pre
	for _, p := range ps {
		k, ok := keyOf(p)
		if !ok {
			cacheable = false
			break
		}
		id := postingKeyOf(k)
		if _, requested := perKey[id]; !requested {
			cacheable = false
			break
		}
		perKey[id] = append(perKey[id], p)
	}
	if cacheable {
		// Insert in missed-key order, not map order: the cache's seeded
		// eviction draws from insertion order, which must be reproducible.
		for _, k := range missed {
			id := postingKeyOf(k)
			list := perKey[id]
			if cap(list) > len(list) {
				list = slices.Clone(list) // the cache is charged, and holds, the capacity
			}
			pc.Put(gen, id, list)
		}
	}
	return append(out, ps...), end, nil
}

// shortCandidates returns oids from the short-value index (instance level)
// or the attribute catalog (schema level), closing the completeness gap for
// needles below the q-gram guarantee threshold. At schema level, the
// per-attribute collection scans are independent branch expansions that fan
// out from one fork point on the actor engine.
func (s *Store) shortCandidates(t *metrics.Tally, from simnet.NodeID, needle, attr string, d int,
	reads *readSet, start simnet.VTime) (map[string]bool, simnet.VTime, error) {

	oids := make(map[string]bool)
	if attr != "" {
		prefix := triples.ShortValuePrefix(attr)
		reads.addScan(prefix)
		filter := func(p triples.Posting) bool {
			return p.Index == triples.IndexShort &&
				p.Triple.Val.Kind == triples.KindString &&
				strdist.LengthFilter(len(p.Triple.Val.Str), len(needle), d) &&
				strdist.WithinDistance(needle, p.Triple.Val.Str, d)
		}
		res, end, err := s.grid.PrefixQueryAt(t, from, prefix,
			pgrid.RangeOptions{Filter: filter, FilterBytes: len(needle) + 4}, start)
		if err != nil {
			return nil, end, err
		}
		for _, p := range res {
			oids[p.Triple.OID] = true
		}
		return oids, end, nil
	}
	// Schema level: find short attribute names within distance via the
	// catalog, then collect the objects carrying them.
	filter := func(p triples.Posting) bool {
		return p.Index == triples.IndexCatalog &&
			strdist.WithinDistance(needle, p.Triple.Attr, d)
	}
	catalog := triples.CatalogPrefix()
	reads.addScan(catalog)
	cat, end, err := s.grid.PrefixQueryAt(t, from, catalog,
		pgrid.RangeOptions{Filter: filter, FilterBytes: len(needle) + 4}, start)
	if err != nil {
		return nil, end, err
	}
	results := make([][]triples.Posting, len(cat))
	errs := make([]error, len(cat))
	end = s.grid.Fanout(end, len(cat), func(i int, st simnet.VTime) simnet.VTime {
		prefix := triples.AttrPrefix(cat[i].Triple.Attr)
		reads.addScan(prefix)
		res, e, err := s.grid.PrefixQueryAt(t, from, prefix, pgrid.RangeOptions{}, st)
		results[i], errs[i] = res, err
		return e
	})
	for i := range cat {
		if errs[i] != nil {
			return nil, end, errs[i]
		}
		for _, p := range results[i] {
			oids[p.Triple.OID] = true
		}
	}
	return oids, end, nil
}

// similarNaiveAt implements the baseline of Section 4: "send a query to each
// peer which is responsible for a part of the strings to be compared. The
// contacted peers then compare the queried string to the data available
// locally and send matching results back." Instance level scans the
// attribute's value partitions; schema level scans the whole attribute-value
// family and compares attribute names.
func (s *Store) similarNaiveAt(t *metrics.Tally, from simnet.NodeID, needle, attr string, d int,
	start simnet.VTime) ([]Match, simnet.VTime, error) {

	var prefix keys.Key
	var filter func(triples.Posting) bool
	schema := attr == ""
	if schema {
		prefix = triples.AllAttrsPrefix()
		filter = func(p triples.Posting) bool {
			return p.Index == triples.IndexAttrValue &&
				strdist.WithinDistance(needle, p.Triple.Attr, d)
		}
	} else {
		prefix = triples.AttrStringPrefix(attr)
		filter = func(p triples.Posting) bool {
			return p.Index == triples.IndexAttrValue &&
				p.Triple.Val.Kind == triples.KindString &&
				strdist.WithinDistance(needle, p.Triple.Val.Str, d)
		}
	}
	res, end, err := s.grid.PrefixQueryAt(t, from, prefix,
		pgrid.RangeOptions{Filter: filter, FilterBytes: len(needle) + 4}, start)
	if err != nil {
		return nil, end, err
	}
	oids := make(map[string]bool, len(res))
	for _, p := range res {
		oids[p.Triple.OID] = true
	}
	// The naive baseline stays entirely uncached: it is the paper's cost
	// comparison, so its reconstruction fetches must hit the wire too.
	objects, end, err := s.reconstructSetAt(t, from, oids, true, nil, end)
	if err != nil {
		return nil, end, err
	}
	return verifyMatches(objects, needle, attr, d, schema), end, nil
}

// reconstruct fetches the complete objects for a set of oids with one batched
// multicast over the oid index (lines 10-11 of Algorithm 2, using the
// shower-style batching the paper lists as an implemented optimization).
func (s *Store) reconstruct(t *metrics.Tally, from simnet.NodeID, oids []string) ([]triples.Tuple, error) {
	out, _, err := s.reconstructAt(t, from, oids, false, nil, simnet.VTime(t.PathEnd()))
	return out, err
}

// reconstructSetAt flattens a candidate oid set into a pooled scratch slice
// and reconstructs — one flatten, one sort (inside reconstructAt), zero
// per-query slice allocations on the similarity path. noCache keeps the
// posting cache out of the oid fetch (the naive baseline); reads,
// when non-nil, records the oid keys fetched.
func (s *Store) reconstructSetAt(t *metrics.Tally, from simnet.NodeID, set map[string]bool,
	noCache bool, reads *readSet, start simnet.VTime) ([]triples.Tuple, simnet.VTime, error) {

	if len(set) == 0 {
		return nil, start, nil
	}
	qs := s.getQueryScratch()
	defer s.putQueryScratch(qs)
	oids := qs.oids[:0]
	for oid := range set {
		oids = append(oids, oid)
	}
	qs.oids = oids
	return s.reconstructAt(t, from, oids, noCache, reads, start)
}

// oidKeyOf attributes an oid-index posting back to its storage key for the
// posting cache: the key is recomputable from the posting's own oid.
func oidKeyOf(p triples.Posting) (keys.Key, bool) {
	if p.Index != triples.IndexOID {
		return keys.Key{}, false
	}
	return triples.OIDKey(p.Triple.OID), true
}

func (s *Store) reconstructAt(t *metrics.Tally, from simnet.NodeID, oids []string,
	noCache bool, reads *readSet, start simnet.VTime) ([]triples.Tuple, simnet.VTime, error) {

	if len(oids) == 0 {
		return nil, start, nil
	}
	sort.Strings(oids)
	qs := s.getQueryScratch()
	defer s.putQueryScratch(qs)
	ks := qs.keys[:0]
	for _, oid := range oids {
		ks = append(ks, triples.OIDKey(oid))
	}
	qs.keys = ks
	reads.addKeys(ks)
	keyOf := oidKeyOf
	if noCache {
		keyOf = nil
	}
	postings, end, err := s.fetch(t, from, ks, keyOf, qs.postings[:0], start)
	if err != nil {
		return nil, end, err
	}
	byOID := make(map[string][]triples.Triple)
	for _, p := range postings {
		if p.Index == triples.IndexOID {
			byOID[p.Triple.OID] = append(byOID[p.Triple.OID], p.Triple)
		}
	}
	qs.postings = postings[:0]
	out := make([]triples.Tuple, 0, len(byOID))
	for _, oid := range oids {
		if ts := byOID[oid]; len(ts) > 0 {
			out = append(out, triples.Recompose(oid, ts))
		}
	}
	return out, end, nil
}

// matchSeenKey deduplicates verified matches without building a composite
// string per candidate (the seen-set used to concatenate oid, attribute and
// candidate with NUL separators — one allocation per verification).
type matchSeenKey struct {
	oid, attr, candidate string
}

// verifyMatches performs the final edit-distance verification (line 23 of
// Algorithm 2) on reconstructed objects and assembles Match results. At
// instance level every string value of attr is checked; at schema level every
// attribute name is.
func verifyMatches(objects []triples.Tuple, needle, attr string, d int, schema bool) []Match {
	var out []Match
	seen := make(map[matchSeenKey]bool)
	for _, o := range objects {
		for _, f := range o.Fields {
			var candidate string
			if schema {
				candidate = f.Name
			} else {
				if f.Name != attr || f.Val.Kind != triples.KindString {
					continue
				}
				candidate = f.Val.Str
			}
			dist, ok := strdist.LevenshteinBounded(needle, candidate, d)
			if !ok {
				continue
			}
			key := matchSeenKey{oid: o.OID, attr: f.Name, candidate: candidate}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Match{
				OID:      o.OID,
				Attr:     f.Name,
				Matched:  candidate,
				Distance: dist,
				Object:   o,
			})
		}
	}
	sortMatches(out)
	return out
}

// sortMatches orders results deterministically: by distance, then matched
// string, then oid, then attribute.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Distance != b.Distance {
			return a.Distance < b.Distance
		}
		if a.Matched != b.Matched {
			return a.Matched < b.Matched
		}
		if a.OID != b.OID {
			return a.OID < b.OID
		}
		return a.Attr < b.Attr
	})
}

func setToSlice(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
