package query

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// StreamRequest is the wire form of a subscription: the standing Request
// plus the transport options of its stream. POST it to /v1/stream; the
// response is an unbounded application/x-ndjson body, one Update per
// line, opened by a heartbeat that acknowledges the subscriber's starting
// sequence.
type StreamRequest struct {
	Request Request `json:"request"`
	// FromSeq resumes after the given hub sequence (best-effort replay
	// from the server's retention ring). Resume marks it authoritative
	// even at 0 — see SubOptions.Resume.
	FromSeq uint64 `json:"from_seq,omitempty"`
	Resume  bool   `json:"resume,omitempty"`
	// Buffer bounds the server-side queue for this subscriber; a full
	// queue drops updates (counted, surfaced on heartbeats). The server
	// clamps wire-supplied buffers to 65536 slots — memory is allocated
	// per subscriber, and a remote caller does not get to size it
	// arbitrarily.
	Buffer int `json:"buffer,omitempty"`
	// Heartbeat is the keep-alive cadence (default 15s, min 100ms).
	Heartbeat Duration `json:"heartbeat,omitempty"`
	// Tick is the recompute cadence of the ticker kinds (see SubOptions).
	Tick Duration `json:"tick,omitempty"`
}

// maxWireBuffer caps the per-subscriber queue a remote caller may
// request: large enough for any reasonable replay+burst, small enough
// that one cheap POST cannot allocate daemon-threatening memory.
const maxWireBuffer = 1 << 16

// options converts the wire form into SubOptions, clamping the
// remote-controlled queue bound.
func (sr StreamRequest) options() SubOptions {
	buf := sr.Buffer
	if buf > maxWireBuffer {
		buf = maxWireBuffer
	}
	return SubOptions{
		Buffer:    buf,
		FromSeq:   sr.FromSeq,
		Resume:    sr.Resume,
		Heartbeat: time.Duration(sr.Heartbeat),
		Tick:      time.Duration(sr.Tick),
	}
}

// handleStream serves one standing query as NDJSON: decode a
// StreamRequest, subscribe, then forward updates as they arrive,
// interleaved with heartbeats that carry the subscriber's last
// acknowledged sequence and its drop count. The stream ends when the
// client disconnects (or cancels the request context) — or with a final
// error line if the subscription itself fails server-side.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST with a StreamRequest body"))
		return
	}
	if s.sub == nil {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("query: this server's executor does not support subscriptions"))
		return
	}
	var sr StreamRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding stream request: %w", err))
		return
	}
	opt := sr.options()
	sub, err := s.sub.Subscribe(sr.Request, opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Also what ends a ticker kind's in-flight recompute when the client
	// hangs up: the request context's end returns from the loop below.
	defer sub.Cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc := json.NewEncoder(w)
	lastSeq := sub.StartSeq()
	heartbeat := func() error {
		return enc.Encode(Update{
			Kind: UpdateHeartbeat, Seq: lastSeq,
			Dropped: sub.Dropped(), Epoch: sub.Epoch(),
		})
	}
	// Opening heartbeat: tells the subscriber where its stream starts —
	// and in which daemon epoch — so a resume after disconnect has a
	// sequence to hand back even if no update ever matched, and can tell
	// a restarted daemon (stale cursor, rewind) from the one it left.
	if heartbeat() != nil {
		return
	}
	flush()

	// closed handles the subscription ending server-side (situation
	// executor failure, hub shutdown) from either receive site: surface
	// why as a terminal update, which the client folds into
	// Subscription.Err instead of treating the EOF as a transport loss.
	closed := func() {
		if err := sub.Err(); err != nil {
			enc.Encode(Update{Kind: UpdateError, Seq: lastSeq, Error: err.Error()})
		}
		flush()
	}

	hb := time.NewTicker(opt.heartbeat())
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			if heartbeat() != nil {
				return
			}
			flush()
		case u, ok := <-sub.Updates():
			if !ok {
				closed()
				return
			}
			lastSeq = u.Seq
			if enc.Encode(u) != nil {
				return
			}
			// Drain whatever queued behind it before flushing: one
			// syscall for a burst instead of one per update.
		drain:
			for {
				select {
				case u, ok := <-sub.Updates():
					if !ok {
						closed()
						return
					}
					lastSeq = u.Seq
					if enc.Encode(u) != nil {
						return
					}
				default:
					break drain
				}
			}
			flush()
		}
	}
}
