// Fault injection: a seeded, per-link probabilistic loss model.
//
// Drops are deterministic in (plan seed, src, dst, per-link sequence number):
// the nth message on a directed link is dropped iff a stateless Splitmix64
// draw falls under the drop rate in force at its departure time. A run that
// issues the same messages in the same order therefore loses the same
// messages, which keeps lossy runs replayable and same-seed sweeps
// byte-identical.

package simnet

import (
	"errors"
	"sync/atomic"
)

// ErrLinkLoss is returned by SendTimed when the fault plan drops the message
// in transit. The message is still accounted — it departed and consumed
// bandwidth — only delivery fails. Callers observe the loss synchronously
// (the in-sim analogue of a nack or timeout) and are expected to retransmit
// or fail over to a replica.
var ErrLinkLoss = errors.New("simnet: message lost in transit")

// FaultWindow overrides the drop rate over the half-open virtual-time
// interval [Start, End), modelling loss bursts or temporary partitions
// (Rate 1 partitions every link for the window's duration).
type FaultWindow struct {
	Start, End VTime
	Rate       float64
}

// FaultPlan describes message loss on the fabric. DropRate applies to every
// directed link; Windows override it while the departure time falls inside
// them (later windows win). Seed isolates the loss draws from every other
// randomized-but-deterministic choice in the run.
type FaultPlan struct {
	DropRate float64
	Seed     uint64
	Windows  []FaultWindow
}

// RateAt reports the drop rate in force at the given virtual time.
func (p *FaultPlan) RateAt(at VTime) float64 {
	r := p.DropRate
	for _, w := range p.Windows {
		if at >= w.Start && at < w.End {
			r = w.Rate
		}
	}
	return r
}

// Drop draws the loss decision for the seq-th message on the from->to link
// departing at the given time. Pure in its arguments, so any component
// maintaining its own sequence numbers (e.g. the actor runtime's envelope
// delivery) drops consistently with the fabric.
func (p *FaultPlan) Drop(from, to NodeID, seq uint64, at VTime) bool {
	rate := p.RateAt(at)
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	link := uint64(uint32(from))<<32 | uint64(uint32(to))
	h := Splitmix64(p.Seed ^ Splitmix64(link) ^ Splitmix64(seq+0x632be59bd9b4e019))
	return float64(h>>11)/(1<<53) < rate
}

// SetFaults installs (nil removes) the loss model. Per-link sequence numbers
// restart from zero, so installing the same plan twice replays the same drop
// schedule against the same message order.
func (n *Network) SetFaults(plan *FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = plan
	n.faultMu.Lock()
	n.linkSeq = nil
	if plan != nil {
		n.linkSeq = make(map[uint64]uint64)
	}
	n.faultMu.Unlock()
}

// Drops reports how many messages the fault plan has dropped so far.
func (n *Network) Drops() int64 { return atomic.LoadInt64(&n.drops) }

// dropped advances the from->to link sequence number and draws the loss
// decision for this message.
func (n *Network) dropped(plan *FaultPlan, from, to NodeID, depart VTime) bool {
	link := uint64(uint32(from))<<32 | uint64(uint32(to))
	n.faultMu.Lock()
	seq := n.linkSeq[link]
	n.linkSeq[link] = seq + 1
	n.faultMu.Unlock()
	return plan.Drop(from, to, seq, depart)
}
