package asyncnet

import (
	"bufio"
	"io"
	"strconv"
	"sync"

	"repro/internal/simnet"
)

// Event tracing on the virtual timeline.
//
// A Tracer records every message lifecycle transition the discrete-event
// runtime (and, via the fabric bridge in core, every wire send) goes through:
// operation issue, send, fabric drop, mailbox enqueue and service start/end —
// each stamped with its virtual time, the link's peer ids and the owning
// operation's correlation id. The record stream makes a
// query's critical path literally visible: which message waited where, behind
// whose work, on the one shared timeline.
//
// Cost model: when no tracer is installed every hook is a nil check — zero
// allocations on the hot send path (pinned by TestNoopTracerZeroAllocs).
// When enabled, records land in a preallocated ring buffer under one mutex;
// recording never allocates, and a full ring overwrites the oldest records
// (the overwrite count is reported, never silent).
//
// Exports: WriteJSONL emits one self-describing JSON object per line in
// record order — byte-identical across runs for a fixed seed on the
// deterministic actor engine. WriteChromeTrace emits the Chrome trace_event
// JSON object format (load via chrome://tracing or https://ui.perfetto.dev):
// each peer is a track, service intervals are duration slices, drops and
// sends are instants.

// TraceKind labels one lifecycle transition.
type TraceKind uint8

const (
	// TraceIssue marks an operation's kickoff: its first event posted onto
	// the timeline (threaded from the issue path, so every later record of
	// the operation shares its id).
	TraceIssue TraceKind = iota
	// TraceSend marks a wire message leaving a peer on the fabric; At is the
	// departure time and Wait the modelled link latency (arrival - departure).
	TraceSend
	// TraceEnqueue marks a message entering the destination's mailbox
	// (queue-enter).
	TraceEnqueue
	// TraceStart marks service start (queue-exit); Wait is the mailbox
	// queueing delay the message paid.
	TraceStart
	// TraceEnd marks service end; Wait is the service time.
	TraceEnd
	// TraceDrop marks a wire message the fabric refused or lost (a down
	// peer, the fault plan's loss); core's fabric bridge records it and Note
	// carries the reason. The runtime itself never drops a message.
	TraceDrop
)

// String names the kind for exports.
func (k TraceKind) String() string {
	switch k {
	case TraceIssue:
		return "issue"
	case TraceSend:
		return "send"
	case TraceEnqueue:
		return "enqueue"
	case TraceStart:
		return "start"
	case TraceEnd:
		return "end"
	case TraceDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// TraceRecord is one recorded lifecycle transition.
type TraceRecord struct {
	// At is the virtual time of the transition (µs).
	At simnet.VTime
	// Kind is the lifecycle transition.
	Kind TraceKind
	// From and To identify the link (for issue records both are the
	// initiator).
	From, To simnet.NodeID
	// Op is the owning operation's correlation id (0 = none: bare messages,
	// driver control events).
	Op uint64
	// Msg is the message kind (simnet.Message.Kind), or the operation kind
	// for issue records.
	Msg string
	// Size is the payload size in bytes.
	Size int
	// Wait is the kind-specific duration: queueing delay for start records,
	// service time for end records, link latency for send records.
	Wait simnet.VTime
	// Note carries the drop reason or other short free-form context.
	Note string
}

// Tracer is a bounded ring buffer of trace records, safe for concurrent use.
// The zero Tracer is not usable; construct with NewTracer. A nil *Tracer is a
// valid no-op sink: Record on nil returns immediately.
type Tracer struct {
	mu      sync.Mutex
	buf     []TraceRecord
	next    int    // index of the next write
	wrapped bool   // the ring has overwritten at least one record
	total   uint64 // records ever offered
}

// DefaultTraceCap is the default ring capacity (records).
const DefaultTraceCap = 1 << 18

// NewTracer returns a tracer with the given ring capacity (minimum 1;
// cap <= 0 selects DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]TraceRecord, 0, capacity)}
}

// Record appends one record, overwriting the oldest when the ring is full.
// Nil-safe and allocation-free.
func (t *Tracer) Record(r TraceRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
	} else {
		t.buf[t.next] = r
		t.next++
		if t.next == cap(t.buf) {
			t.next = 0
		}
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Len reports the number of retained records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total reports the number of records ever offered (retained + overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Overwritten reports how many records the ring has discarded.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Reset clears the ring (capacity is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.wrapped = false
	t.total = 0
	t.mu.Unlock()
}

// Records returns the retained records in record order (oldest first).
func (t *Tracer) Records() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// appendJSONString appends a JSON string literal, escaping per RFC 8259.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// appendRecordJSON renders one record as a compact JSON object with a fixed
// field order, so the byte stream is deterministic.
func appendRecordJSON(b []byte, r TraceRecord) []byte {
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, int64(r.At), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, r.Kind.String())
	b = append(b, `,"from":`...)
	b = strconv.AppendInt(b, int64(r.From), 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, int64(r.To), 10)
	b = append(b, `,"op":`...)
	b = strconv.AppendUint(b, r.Op, 10)
	b = append(b, `,"msg":`...)
	b = appendJSONString(b, r.Msg)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(r.Size), 10)
	b = append(b, `,"wait":`...)
	b = strconv.AppendInt(b, int64(r.Wait), 10)
	if r.Note != "" {
		b = append(b, `,"note":`...)
		b = appendJSONString(b, r.Note)
	}
	return append(b, '}')
}

// WriteJSONL writes the retained records as JSON Lines, one record per line,
// in record order. For a fixed seed on the deterministic actor engine the
// output is byte-identical across runs.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, r := range t.Records() {
		line = appendRecordJSON(line[:0], r)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes the retained records in the Chrome trace_event JSON
// object format. Each peer is a thread track (tid = peer id): service
// intervals become B/E duration slices named by message kind; sends, drops
// and issues become instant events. Load the file via chrome://tracing or
// https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	var line []byte
	first := true
	emit := func(ph byte, name string, ts simnet.VTime, tid simnet.NodeID, r TraceRecord) error {
		line = line[:0]
		if !first {
			line = append(line, ',')
		}
		first = false
		line = append(line, "\n{\"ph\":\""...)
		line = append(line, ph, '"')
		line = append(line, `,"name":`...)
		line = appendJSONString(line, name)
		line = append(line, `,"ts":`...)
		line = strconv.AppendInt(line, int64(ts), 10)
		line = append(line, `,"pid":0,"tid":`...)
		line = strconv.AppendInt(line, int64(tid), 10)
		if ph == 'i' {
			line = append(line, `,"s":"t"`...)
		}
		line = append(line, `,"args":{"op":`...)
		line = strconv.AppendUint(line, r.Op, 10)
		line = append(line, `,"from":`...)
		line = strconv.AppendInt(line, int64(r.From), 10)
		line = append(line, `,"to":`...)
		line = strconv.AppendInt(line, int64(r.To), 10)
		line = append(line, `,"size":`...)
		line = strconv.AppendInt(line, int64(r.Size), 10)
		line = append(line, `,"wait_us":`...)
		line = strconv.AppendInt(line, int64(r.Wait), 10)
		if r.Note != "" {
			line = append(line, `,"note":`...)
			line = appendJSONString(line, r.Note)
		}
		line = append(line, "}}"...)
		_, err := bw.Write(line)
		return err
	}
	for _, r := range t.Records() {
		var err error
		switch r.Kind {
		case TraceStart:
			err = emit('B', r.Msg, r.At, r.To, r)
		case TraceEnd:
			err = emit('E', r.Msg, r.At, r.To, r)
		case TraceSend:
			err = emit('i', "send "+r.Msg, r.At, r.From, r)
		case TraceDrop:
			err = emit('i', "drop "+r.Msg, r.At, r.To, r)
		case TraceIssue:
			err = emit('i', "issue "+r.Msg, r.At, r.From, r)
		case TraceEnqueue:
			// Enqueue is implied by the B slice's wait_us; a separate instant
			// per message would double the event count without adding signal.
			continue
		}
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
