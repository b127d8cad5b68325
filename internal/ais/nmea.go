package ais

import (
	"fmt"
	"strconv"
	"strings"
)

// maxPayloadChars is the maximum number of armored payload characters per
// AIVDM sentence; longer messages (type 5) are split into fragments.
const maxPayloadChars = 60

// Sentence is a parsed NMEA 0183 AIVDM/AIVDO sentence.
type Sentence struct {
	Talker    string // "AIVDM" or "AIVDO"
	FragCount int
	FragNum   int
	MsgID     string // sequential message id linking fragments ("" if single)
	Channel   string // "A" or "B"
	Payload   string // armored payload characters
	FillBits  int
}

// Checksum computes the NMEA checksum (XOR of bytes between '!' and '*').
func Checksum(body string) byte {
	var cs byte
	for i := 0; i < len(body); i++ {
		cs ^= body[i]
	}
	return cs
}

// ParseSentence parses one AIVDM/AIVDO line, validating the checksum.
func ParseSentence(line string) (Sentence, error) {
	var s Sentence
	line = strings.TrimRight(line, "\r\n")
	if len(line) < 10 || line[0] != '!' {
		return s, fmt.Errorf("ais: not an NMEA sentence: %q", truncate(line, 32))
	}
	star := strings.LastIndexByte(line, '*')
	if star < 0 || star+3 > len(line) {
		return s, fmt.Errorf("ais: missing checksum: %q", truncate(line, 32))
	}
	body := line[1:star]
	want, err := strconv.ParseUint(line[star+1:star+3], 16, 8)
	if err != nil {
		return s, fmt.Errorf("ais: bad checksum field: %w", err)
	}
	if got := Checksum(body); got != byte(want) {
		return s, fmt.Errorf("ais: checksum mismatch: got %02X want %02X", got, byte(want))
	}
	// Split into exactly 7 comma-separated fields without allocating the
	// slice strings.Split would (decode hot path).
	var fields [7]string
	n := 0
	for n < 6 {
		i := strings.IndexByte(body, ',')
		if i < 0 {
			break
		}
		fields[n] = body[:i]
		body = body[i+1:]
		n++
	}
	if n != 6 || strings.IndexByte(body, ',') >= 0 {
		return s, fmt.Errorf("ais: expected 7 fields: %q", truncate(line, 32))
	}
	fields[6] = body
	if fields[0] != "AIVDM" && fields[0] != "AIVDO" {
		return s, fmt.Errorf("ais: unexpected talker %q", fields[0])
	}
	s.Talker = fields[0]
	if s.FragCount, err = strconv.Atoi(fields[1]); err != nil {
		return s, fmt.Errorf("ais: bad fragment count: %w", err)
	}
	if s.FragNum, err = strconv.Atoi(fields[2]); err != nil {
		return s, fmt.Errorf("ais: bad fragment number: %w", err)
	}
	s.MsgID = fields[3]
	s.Channel = fields[4]
	s.Payload = fields[5]
	if s.FillBits, err = strconv.Atoi(fields[6]); err != nil {
		return s, fmt.Errorf("ais: bad fill bits: %w", err)
	}
	if s.FragCount < 1 || s.FragNum < 1 || s.FragNum > s.FragCount {
		return s, fmt.Errorf("ais: inconsistent fragmentation %d/%d", s.FragNum, s.FragCount)
	}
	return s, nil
}

// Format renders the sentence as a complete NMEA line (without newline).
func (s Sentence) Format() string {
	body := fmt.Sprintf("%s,%d,%d,%s,%s,%s,%d",
		s.Talker, s.FragCount, s.FragNum, s.MsgID, s.Channel, s.Payload, s.FillBits)
	return fmt.Sprintf("!%s*%02X", body, Checksum(body))
}

// EncodeSentences encodes a message into one or more AIVDM lines. msgID is
// used to link fragments of multi-sentence messages; channel is "A" or "B".
func EncodeSentences(msg any, msgID int, channel string) ([]string, error) {
	bits, err := EncodePayload(msg)
	if err != nil {
		return nil, err
	}
	payload, fill := armorPayload(bits)
	if len(payload) <= maxPayloadChars {
		s := Sentence{Talker: "AIVDM", FragCount: 1, FragNum: 1,
			Channel: channel, Payload: payload, FillBits: fill}
		return []string{s.Format()}, nil
	}
	var out []string
	nfrag := (len(payload) + maxPayloadChars - 1) / maxPayloadChars
	id := strconv.Itoa(msgID % 10)
	for i := 0; i < nfrag; i++ {
		lo := i * maxPayloadChars
		hi := lo + maxPayloadChars
		if hi > len(payload) {
			hi = len(payload)
		}
		fb := 0
		if i == nfrag-1 {
			fb = fill
		}
		s := Sentence{Talker: "AIVDM", FragCount: nfrag, FragNum: i + 1,
			MsgID: id, Channel: channel, Payload: payload[lo:hi], FillBits: fb}
		out = append(out, s.Format())
	}
	return out, nil
}

// Decoder assembles AIVDM sentences (including multi-fragment messages)
// into decoded AIS messages. It is not safe for concurrent use; create one
// per input stream.
//
// The decoder reuses its unarmor and payload-assembly buffers, recycles
// fragment-map entries across messages and interns decoded text fields
// (ship names, call signs, destinations) through a zero-copy string
// table, so the steady-state Decode cost is the one allocation of the
// decoded message itself (see the allocs/op benchmarks in bench_test.go
// and the pin in ais_test.go).
type Decoder struct {
	pending map[string][]Sentence // msgID+channel -> fragments received so far

	single   [1]Sentence  // scratch for the single-fragment fast path
	payload  []byte       // reused multi-fragment payload assembly buffer
	bits     []byte       // reused unarmored-bit buffer
	fragFree [][]Sentence // recycled fragment slices from completed groups
	interned stringTable  // shared copies of decoded text fields
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder {
	return &Decoder{pending: make(map[string][]Sentence)}
}

// Decode consumes one NMEA line. It returns a decoded message when the line
// completes one, (nil, nil) when the line was consumed but the message is
// still incomplete, and an error for malformed input.
func (d *Decoder) Decode(line string) (any, error) {
	s, err := ParseSentence(line)
	if err != nil {
		return nil, err
	}
	if s.FragCount == 1 {
		d.single[0] = s
		return d.finish(d.single[:1])
	}
	key := s.MsgID + "/" + s.Channel
	frags, ok := d.pending[key]
	if !ok && len(d.fragFree) > 0 {
		frags = d.fragFree[len(d.fragFree)-1]
		d.fragFree = d.fragFree[:len(d.fragFree)-1]
	}
	frags = append(frags, s)
	if len(frags) < s.FragCount {
		d.pending[key] = frags
		return nil, nil
	}
	delete(d.pending, key)
	defer d.recycle(frags)
	// Check the fragment set is a permutation of 1..FragCount and sort it
	// into fragment-number order in place.
	for _, f := range frags {
		if f.FragNum < 1 || f.FragNum > s.FragCount {
			return nil, fmt.Errorf("ais: inconsistent fragment set for %q", key)
		}
	}
	for i := 0; i < len(frags); i++ {
		for frags[i].FragNum != i+1 {
			j := frags[i].FragNum - 1
			if frags[j].FragNum == frags[i].FragNum {
				return nil, fmt.Errorf("ais: inconsistent fragment set for %q", key)
			}
			frags[i], frags[j] = frags[j], frags[i]
		}
	}
	return d.finish(frags)
}

// recycle returns a completed fragment group's slice to the free list so
// the next multi-fragment message reuses its backing array.
func (d *Decoder) recycle(frags []Sentence) {
	for i := range frags {
		frags[i] = Sentence{} // drop string references
	}
	d.fragFree = append(d.fragFree, frags[:0])
}

func (d *Decoder) finish(frags []Sentence) (any, error) {
	fill := frags[len(frags)-1].FillBits
	d.payload = d.payload[:0]
	for _, f := range frags {
		d.payload = append(d.payload, f.Payload...)
	}
	bits, err := unarmorAppend(d.bits[:0], d.payload, fill)
	d.bits = bits[:0]
	if err != nil {
		return nil, err
	}
	msg, err := decodePayloadWith(bits, &d.interned)
	if err != nil {
		return nil, err
	}
	return msg, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
