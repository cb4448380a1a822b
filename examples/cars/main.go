// Cars: the paper's motivating scenario (Section 3) at a realistic size —
// a public used-car market where cars and dealers are published by many
// parties. Runs the paper's three example queries, including the similarity
// join of cars to dealers and the schema-level typo hunt.
//
//	go run ./examples/cars
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	// 400 cars referencing 40 dealers; a fifth of the dealers misspell
	// their id attribute (dleid, dlrjd, ...), which is exactly the
	// heterogeneity the paper's schema-level similarity targets.
	dealers := dataset.Dealers(40, 0.2, 7)
	cars := dataset.Cars(400, 40, 8)
	eng, err := core.Open(append(cars, dealers...), core.Config{Peers: 128})
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("market: %d cars, %d dealers -> %d triples on %d peers\n\n",
		len(cars), len(dealers), st.Storage.Triples, st.Grid.Peers)

	run := func(title, q string) {
		fmt.Println("==", title)
		res, tally, err := eng.QueryMeasured(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Format())
		fmt.Printf("overlay cost: %s\n\n", tally)
	}

	// Paper example 1: "Select name, horsepower (hp) and price of the 5
	// most powered cars below a price of 50000 (top-N query)".
	run("paper query 1: top-5 hp below 50000", `
		SELECT ?n,?h,?p
		WHERE { (?o,name,?n) (?o,hp,?h) (?o,price,?p)
		FILTER (?p < 50000) }
		ORDER BY ?h DESC LIMIT 5`)

	// Paper example 2: "additionally all corresponding dealers and their
	// addresses are selected. Moreover, we are only interested in BMW cars"
	// — note the fuzzy name match (dist < 2 tolerates 'BMW '-variants).
	run("paper query 2: BMW-like cars joined with their dealers", `
		SELECT ?n,?h,?p,?dn,?a
		WHERE { (?x,dealer,?d) (?y,dlrid,?d)
		(?x,name,?n) (?x,hp,?h) (?x,price,?p)
		(?y,addr,?a) (?y,name,?dn)
		FILTER (?p < 50000)
		FILTER (dist(?n,'BMW Sedan') < 2)}
		ORDER BY ?h DESC LIMIT 5`)

	// Paper example 3: "Select all attribute names which have a maximal
	// distance of 2 from 'dlrid', for instance to detect typos. The found
	// dealer objects are joined by similarity on their IDs with car
	// triples" — schema-level similarity plus a similarity join.
	run("paper query 3: typo-tolerant dealer join (schema level)", `
		SELECT ?n,?p,?dn,?ad
		WHERE { (?d,?a,?id) (?d,name,?dn) (?d,addr,?ad)
		(?o,name,?n) (?o,price,?p)
		(?o,dealer,?cid)
		FILTER (dist(?id,?cid) < 1)
		FILTER (dist(?a,'dlrid') < 3)}
		ORDER BY ?a NN 'dlrid' LIMIT 8`)

	// Which id spellings exist in the wild? Schema-level similarity alone.
	fmt.Println("== attribute spellings within distance 2 of 'dlrid'")
	ms, err := eng.Similar("dlrid", "", 2)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, m := range ms {
		counts[m.Attr]++
	}
	// Most-used spelling first, ties by name, so every run prints the same.
	spellings := slices.Sorted(maps.Keys(counts))
	sort.SliceStable(spellings, func(i, j int) bool { return counts[spellings[i]] > counts[spellings[j]] })
	for _, s := range spellings {
		fmt.Printf("   %-8s used by %d dealers\n", s, counts[s])
	}
}
