package pgrid

import (
	"fmt"
	"runtime"
	"testing"
)

// membershipCost measures one steady-state Join+Leave pair on g: average
// allocation count (testing.AllocsPerRun) and average allocated bytes per
// pair. Leaves that would orphan a partition are skipped — with replication
// most joins land as replicas and leave cleanly, so the peer count stays
// near-steady across the measurement.
func membershipCost(t *testing.T, g *Grid, runs int) (allocs, bytesPer float64) {
	t.Helper()
	pair := func() {
		id, err := g.Join(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Leave(nil, id); err != nil && err != ErrSoleOwner {
			t.Fatal(err)
		}
	}
	pair() // warm caches and pools outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, pair)
	runtime.ReadMemStats(&after)
	// AllocsPerRun executes runs+1 iterations.
	bytesPer = float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
	return allocs, bytesPer
}

// TestChurnAllocsFlatAtScale extends the churn oracle to chunked-epoch scale:
// membership ops on a 10k-peer grid must cost the same order of allocations
// and bytes as on a 1k-peer grid. Before the chunked tables every epoch
// publish copied the full peer and leaf slices, so bytes per op grew
// linearly with peer count; chunked copy-on-write pins it to the touched
// chunks.
func TestChurnAllocsFlatAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-peer grid build in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Replication = 4 // joins land as replicas, so Join+Leave pairs are steady-state

	small, _ := buildTestGrid(t, 1000, 2000, cfg)
	big, _ := buildTestGrid(t, 10000, 2000, cfg)

	const runs = 60
	allocsSmall, bytesSmall := membershipCost(t, small, runs)
	allocsBig, bytesBig := membershipCost(t, big, runs)
	t.Logf("1k peers: %.1f allocs / %.0f B per join+leave; 10k peers: %.1f allocs / %.0f B",
		allocsSmall, bytesSmall, allocsBig, bytesBig)

	// Flat allocation count: 10x the peers must not change the op's shape.
	if allocsBig > allocsSmall*1.5+16 {
		t.Errorf("allocs per op grew from %.1f (1k peers) to %.1f (10k peers): not flat",
			allocsSmall, allocsBig)
	}
	// Sublinear bytes: the flat-slice clone would 10x here; chunked
	// copy-on-write must stay well under that.
	if bytesBig > bytesSmall*3 {
		t.Errorf("bytes per op grew from %.0f (1k peers) to %.0f (10k peers): epoch clones are not chunked",
			bytesSmall, bytesBig)
	}

	// The churned 10k grid must still satisfy every trie invariant.
	checkTrieInvariants(t, big)
}

// BenchmarkMembershipAtScale measures the cost of one steady-state
// Join+Leave pair as the grid grows 1k -> 100k peers. With
// chunked copy-on-write epoch tables the per-op allocation count is flat and
// the time grows only with the binary searches, not with table-clone size.
func BenchmarkMembershipAtScale(b *testing.B) {
	for _, peers := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Replication = 4 // joins land as replicas: Join+Leave is steady-state
			// Items scale with peers: a grid starved of distinct keys stops
			// splitting and piles every extra peer onto the same partitions,
			// which measures replica-list copying, not membership cost.
			g, _ := buildTestGrid(b, peers, 2*peers, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := g.Join(nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := g.Leave(nil, id); err != nil && err != ErrSoleOwner {
					b.Fatal(err)
				}
			}
		})
	}
}
