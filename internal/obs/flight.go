package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the black box of the daemon: a fixed-size ring
// of structured events that every layer writes its load-bearing
// transitions into — segment seals and uploads, upload-queue stalls,
// tier evictions and page-back errors, subscriber drops, epoch rewinds,
// peer degradation, flush backpressure. Counters say *how much*; the
// flight ring says *what happened, in what order*, which is the record
// an incident investigation actually needs. It is cheap enough to stay
// on permanently: recording is one atomic add plus one short per-slot
// mutex hold with zero allocations, and a nil *Flight reduces every
// site to a nil check.

// FlightLevel classifies an event's severity.
type FlightLevel int32

const (
	FlightInfo FlightLevel = iota
	FlightWarn
	FlightError
)

// String renders the level the way /debug/flight and dumps spell it.
func (l FlightLevel) String() string {
	switch l {
	case FlightWarn:
		return "warn"
	case FlightError:
		return "error"
	default:
		return "info"
	}
}

// ParseFlightLevel maps the wire spelling back to a level (default
// info, so an empty filter admits everything).
func ParseFlightLevel(s string) FlightLevel {
	switch s {
	case "warn":
		return FlightWarn
	case "error":
		return FlightError
	default:
		return FlightInfo
	}
}

// KV is one small key/value field of a flight event: a string or an
// int64, chosen by the FS/FI constructors. A fixed struct (rather than
// an any) keeps Record allocation-free — the variadic slice stays on
// the caller's stack.
type KV struct {
	K   string
	S   string
	N   int64
	Num bool
}

// FS builds a string field.
func FS(k, v string) KV { return KV{K: k, S: v} }

// FI builds an integer field.
func FI(k string, n int64) KV { return KV{K: k, N: n, Num: true} }

// flightKVs caps the fields one event carries; extra fields are dropped
// (events are telegrams, not log lines).
const flightKVs = 4

// FlightEvent is one recorded transition. Seq orders events totally
// across the ring (it never resets); Mono is the monotonic offset from
// the recorder's start and Wall the matching wall-clock instant.
type FlightEvent struct {
	Seq   uint64
	Wall  time.Time
	Mono  time.Duration
	Level FlightLevel
	Layer string
	Msg   string

	kvs [flightKVs]KV
	nkv int
}

// Fields returns the event's key/value fields.
func (e *FlightEvent) Fields() []KV { return e.kvs[:e.nkv] }

// Flight is the fixed-size, lock-light event ring. Writers claim a slot
// with one atomic add and publish under that slot's mutex; readers
// snapshot slot by slot, so a scrape never stalls more than one writer
// at a time. All methods are nil-safe.
type Flight struct {
	start time.Time // wall+monotonic anchor of Mono offsets
	seq   atomic.Uint64
	slots []flightSlot
	mask  uint64
}

type flightSlot struct {
	mu sync.Mutex
	ev FlightEvent
}

// NewFlight builds a ring of at least size events (rounded up to a
// power of two; default 1024 when size <= 0).
func NewFlight(size int) *Flight {
	if size <= 0 {
		size = 1024
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Flight{start: time.Now(), slots: make([]flightSlot, n), mask: uint64(n - 1)}
}

// Record appends one event, overwriting the ring's oldest. Safe from
// any goroutine and on a nil recorder; zero allocations when the
// variadic fields do not escape (they are copied into the slot).
func (f *Flight) Record(level FlightLevel, layer, msg string, fields ...KV) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1)
	mono := time.Since(f.start)
	slot := &f.slots[seq&f.mask]
	slot.mu.Lock()
	// Latest-wins under a wrap race: if a writer lapped the ring while
	// we held our seq, its newer event keeps the slot.
	if slot.ev.Seq < seq {
		slot.ev.Seq = seq
		slot.ev.Wall = f.start.Add(mono)
		slot.ev.Mono = mono
		slot.ev.Level = level
		slot.ev.Layer = layer
		slot.ev.Msg = msg
		slot.ev.nkv = copy(slot.ev.kvs[:], fields)
	}
	slot.mu.Unlock()
}

// FlightFilter selects events for Events/WriteJSON: empty fields admit
// everything.
type FlightFilter struct {
	Layer    string      // exact layer match when non-empty
	MinLevel FlightLevel // admit events at or above this level
	Since    time.Time   // admit events with Wall at or after this instant
}

func (flt FlightFilter) admits(ev *FlightEvent) bool {
	if ev.Level < flt.MinLevel {
		return false
	}
	if flt.Layer != "" && ev.Layer != flt.Layer {
		return false
	}
	if !flt.Since.IsZero() && ev.Wall.Before(flt.Since) {
		return false
	}
	return true
}

// Events snapshots the retained events matching flt, oldest first.
// Nil-safe.
func (f *Flight) Events(flt FlightFilter) []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq == 0 || !flt.admits(&ev) {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// flightJSON is the wire shape of one event on /debug/flight.
type flightJSON struct {
	Seq    uint64         `json:"seq"`
	Wall   time.Time      `json:"wall"`
	MonoNS int64          `json:"mono_ns"`
	Level  string         `json:"level"`
	Layer  string         `json:"layer"`
	Msg    string         `json:"msg"`
	Fields map[string]any `json:"fields,omitempty"`
}

// WriteJSON renders the matching events as a JSON array, oldest first.
func (f *Flight) WriteJSON(w io.Writer, flt FlightFilter) error {
	events := f.Events(flt)
	doc := make([]flightJSON, len(events))
	for i := range events {
		ev := &events[i]
		j := flightJSON{
			Seq: ev.Seq, Wall: ev.Wall, MonoNS: int64(ev.Mono),
			Level: ev.Level.String(), Layer: ev.Layer, Msg: ev.Msg,
		}
		if ev.nkv > 0 {
			j.Fields = make(map[string]any, ev.nkv)
			for _, kv := range ev.Fields() {
				if kv.Num {
					j.Fields[kv.K] = kv.N
				} else {
					j.Fields[kv.K] = kv.S
				}
			}
		}
		doc[i] = j
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Dump writes the retained events as human-readable lines, oldest
// first — the SIGQUIT / daemon-exit rendering. Nil-safe (writes
// nothing).
func (f *Flight) Dump(w io.Writer) {
	for _, ev := range f.Events(FlightFilter{}) {
		fmt.Fprintf(w, "[flight] %s +%-12v %-5s %-7s %s",
			ev.Wall.UTC().Format(time.RFC3339Nano),
			ev.Mono.Round(time.Microsecond), ev.Level, ev.Layer, ev.Msg)
		for _, kv := range ev.Fields() {
			if kv.Num {
				fmt.Fprintf(w, " %s=%d", kv.K, kv.N)
			} else {
				fmt.Fprintf(w, " %s=%s", kv.K, kv.S)
			}
		}
		fmt.Fprintln(w)
	}
}
