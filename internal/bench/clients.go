// Client-body helpers of the traffic drivers: issueQuery runs one
// similarity query on a client's virtual timeline, and the peer-load
// snapshots attribute a sweep point's service time to its hottest peer.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simnet"
)

// issueQuery is the client-body shape of the open-loop driver: advance the
// client timeline to startUS (an arrival instant), run one similarity query,
// and return its own cost slice. The pre-seed lands before the snapshot, so
// the slice's Latency is the query's sojourn from startUS to completion,
// idle time excluded.
func issueQuery(eng *core.Engine, ct *metrics.Tally, from simnet.NodeID, needle, attr string,
	d int, opts ops.SimilarOptions, startUS int64) (metrics.Tally, error) {

	if startUS > ct.PathEnd() {
		ct.ObservePath(0, startUS)
	}
	before := ct.Snapshot()
	_, err := eng.Store().Similar(ct, from, needle, attr, d, opts)
	return ct.Snapshot().Sub(before), err
}

// peerLoadSnapshot captures per-peer busy time and delivered counts on actor
// engines; nil otherwise.
type peerLoad struct {
	busy      simnet.VTime
	delivered int
}

func peerLoadSnapshot(eng *core.Engine) map[simnet.NodeID]peerLoad {
	rt := eng.Runtime()
	if rt == nil {
		return nil
	}
	out := make(map[simnet.NodeID]peerLoad)
	for _, l := range rt.AllStats() {
		out[l.ID] = peerLoad{busy: l.Stats.Busy, delivered: l.Stats.Delivered}
	}
	return out
}

// hottestPeer diffs the runtime's per-peer stats against a prior snapshot and
// returns the peer with the largest busy-time delta plus its share of the
// total delta. Under zero service time busy never accrues, so delivered
// counts break the tie. Returns (-1, 0) for non-actor engines or when the
// point did no attributable work.
func hottestPeer(eng *core.Engine, before map[simnet.NodeID]peerLoad) (simnet.NodeID, float64) {
	rt := eng.Runtime()
	if rt == nil || before == nil {
		return -1, 0
	}
	var (
		hot                  simnet.NodeID = -1
		hotBusy, totalBusy   simnet.VTime
		hotDeliv, totalDeliv int
	)
	for _, l := range rt.AllStats() {
		prev := before[l.ID]
		db := l.Stats.Busy - prev.busy
		dd := l.Stats.Delivered - prev.delivered
		totalBusy += db
		totalDeliv += dd
		if db > hotBusy || (db == hotBusy && dd > hotDeliv) {
			hot, hotBusy, hotDeliv = l.ID, db, dd
		}
	}
	switch {
	case totalBusy > 0:
		return hot, float64(hotBusy) / float64(totalBusy)
	case totalDeliv > 0:
		return hot, float64(hotDeliv) / float64(totalDeliv)
	default:
		return -1, 0
	}
}

func ms(us float64) string { return fmt.Sprintf("%.2fms", us/1000) }
