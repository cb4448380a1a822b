package asyncnet

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

// TestMultiCallStreamsReplies: a call harvests replies from many peers under
// one correlation id, each at the virtual time it reaches the initiator, and
// stops only at Close: a reply arriving after Close is discarded.
func TestMultiCallStreamsReplies(t *testing.T) {
	rt := NewRuntime()
	const initiator = simnet.NodeID(0)
	rt.Register(initiator, 0, nil)
	var replies []string
	corr := rt.Open(func(rt *Runtime, ev Event, p simnet.Message) {
		replies = append(replies, fmt.Sprintf("%d@%d", p.(testMsg).id, ev.At))
	})
	req := Envelope{Corr: corr, ReplyTo: initiator}
	for i := 1; i <= 5; i++ {
		id := simnet.NodeID(i)
		rt.Register(id, 0, nil)
		if err := rt.Reply(id, req, testMsg{id: i}, simnet.VTime(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	rt.Run()
	if want := "[1@10 2@20 3@30 4@40 5@50]"; fmt.Sprint(replies) != want {
		t.Fatalf("replies = %v, want %s", replies, want)
	}
	if !rt.Close(corr) {
		t.Fatal("call closed itself")
	}
	if err := rt.Reply(1, req, testMsg{id: 6}, rt.Now()+10); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if len(replies) != 5 {
		t.Fatalf("reply after Close reached the continuation: %v", replies)
	}
}

// TestDrainRespectsIssueWindow pins the issue-window gate: Drain must not
// step (and so must not advance the virtual clock past) work that an open
// issue window still protects — the kickoff a concurrent issuer is about to
// post lands at its intended virtual time, never clamped forward.
func TestDrainRespectsIssueWindow(t *testing.T) {
	rt := NewRuntime()
	var order []int
	rt.Register(1, 0, func(rt *Runtime, ev Event) {
		order = append(order, ev.Msg.(testMsg).id)
	})
	// A later event is already scheduled; the gated issuer will post an
	// earlier one. Without the window the drain would process the later
	// event first and the earlier kickoff would be clamped forward.
	if err := rt.Post(0, 1, testMsg{id: 2}, 100); err != nil {
		t.Fatal(err)
	}
	rt.BeginIssue()
	posted := make(chan struct{})
	go func() {
		if err := rt.Post(0, 1, testMsg{id: 1}, 5); err != nil {
			t.Error(err)
		}
		close(posted)
		rt.EndIssue()
	}()
	<-posted // deterministic test: the kickoff is in the heap before draining
	rt.Drain(nil)
	if fmt.Sprint(order) != fmt.Sprint([]int{1, 2}) {
		t.Fatalf("delivery order = %v, want [1 2] (issue-window kickoff first)", order)
	}
}

// TestRuntimeQueueAndBusyStats pins the new per-actor observability: with a
// service time and burst arrivals, queue delay, busy time and max backlog
// are all visible in ActorStats and AllStats.
func TestRuntimeQueueAndBusyStats(t *testing.T) {
	rt := NewRuntime()
	var waits []simnet.VTime
	rt.Register(5, 10, func(rt *Runtime, ev Event) {
		waits = append(waits, ev.At-ev.Enqueued)
	})
	for i := 0; i < 4; i++ {
		if err := rt.Post(0, 5, testMsg{id: i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	rt.Run()
	// Arrivals at 0, service 10: starts at 0,10,20,30 → waits 0,10,20,30.
	if fmt.Sprint(waits) != fmt.Sprint([]simnet.VTime{0, 10, 20, 30}) {
		t.Fatalf("waits = %v", waits)
	}
	st := rt.Stats(5)
	if st.QueueDelay != 60 || st.Busy != 40 {
		t.Fatalf("queue=%d busy=%d, want 60/40", st.QueueDelay, st.Busy)
	}
	if st.MaxBacklog != 4 {
		t.Fatalf("max backlog = %d, want 4", st.MaxBacklog)
	}
	all := rt.AllStats()
	if len(all) != 1 || all[0].ID != 5 || all[0].Stats != st {
		t.Fatalf("AllStats = %+v", all)
	}
}
