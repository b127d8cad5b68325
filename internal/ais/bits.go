// Package ais implements the subset of ITU-R M.1371 (the AIS transponder
// standard) that maritime surveillance pipelines consume: Class A position
// reports (types 1–3), static and voyage data (type 5), Class B position
// reports (type 18) and Class B static data (type 24), together with the
// NMEA 0183 !AIVDM sentence layer (6-bit payload armoring, multi-fragment
// assembly and checksums).
//
// The codec is binary-faithful: encoding a message and decoding the
// resulting sentences yields the original field values up to the standard's
// own quantisation (positions in 1/10000 minute, speeds in 1/10 knot), and
// whatever a sentence decodes to re-encodes to a sentence that decodes to
// the same message (FuzzDecode).
package ais

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// bitWriter packs big-endian bit fields into a byte-per-bit buffer. AIS
// payloads are short (≤ 424 bits), so the simple representation wins on
// clarity with no measurable cost.
type bitWriter struct {
	bits []byte
}

func (w *bitWriter) writeUint(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.bits = append(w.bits, byte(v>>uint(i)&1))
	}
}

// writeInt writes a two's-complement signed value in n bits.
func (w *bitWriter) writeInt(v int64, n int) {
	w.writeUint(uint64(v)&(1<<uint(n)-1), n)
}

// writeString writes a 6-bit ASCII text field of n characters, padding with
// '@' (the AIS "no character" symbol).
func (w *bitWriter) writeString(s string, n int) {
	s = strings.ToUpper(s)
	for i := 0; i < n; i++ {
		var c byte = '@'
		if i < len(s) {
			c = s[i]
		}
		w.writeUint(uint64(charTo6bit(c)), 6)
	}
}

func (w *bitWriter) len() int { return len(w.bits) }

// bitReader unpacks big-endian bit fields. When intern is set (the
// Decoder's steady-state path), decoded text fields are resolved through
// its zero-copy string table instead of allocating a fresh string per
// field.
type bitReader struct {
	bits   []byte
	pos    int
	err    error
	intern *stringTable
}

var errShortPayload = errors.New("ais: payload too short")

func (r *bitReader) readUint(n int) uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+n > len(r.bits) {
		r.err = errShortPayload
		return 0
	}
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(r.bits[r.pos+i])
	}
	r.pos += n
	return v
}

func (r *bitReader) readInt(n int) int64 {
	v := r.readUint(n)
	if r.err != nil {
		return 0
	}
	if v&(1<<uint(n-1)) != 0 { // sign bit set
		return int64(v) - int64(1)<<uint(n)
	}
	return int64(v)
}

// readString reads an n-character 6-bit ASCII field, trimming the trailing
// '@' padding and surrounding spaces as receivers conventionally do. The
// characters are assembled in a scratch buffer; with an intern table the
// result is the table's shared copy (ship names, call signs and
// destinations repeat across a vessel's six-minute static rebroadcasts,
// so the steady-state cost is a map lookup, not an allocation).
func (r *bitReader) readString(n int) string {
	var buf []byte
	if r.intern != nil {
		buf = r.intern.scratch[:0]
	} else {
		buf = make([]byte, 0, n)
	}
	for i := 0; i < n; i++ {
		v := r.readUint(6)
		if r.err != nil {
			return ""
		}
		buf = append(buf, sixbitToChar(byte(v)))
	}
	if r.intern != nil {
		r.intern.scratch = buf[:0]
	}
	if i := bytes.IndexByte(buf, '@'); i >= 0 {
		buf = buf[:i]
	}
	for len(buf) > 0 && buf[len(buf)-1] == ' ' {
		buf = buf[:len(buf)-1]
	}
	if r.intern != nil {
		return r.intern.lookup(buf)
	}
	return string(buf)
}

// stringTableCap bounds the intern table so a feed of never-repeating
// text fields (hostile or corrupt input) cannot grow it without limit;
// past the cap, lookups that miss simply allocate like the untabled path.
const stringTableCap = 4096

// stringTable interns decoded 6-bit text fields. The map is keyed by the
// strings it stores, and lookup converts its []byte argument without
// allocating (the compiler's map[string]x with string(b) key
// optimisation), so a repeated field costs zero allocations.
type stringTable struct {
	m       map[string]string
	scratch []byte
}

// lookup returns the shared copy of b, adding one if the table has room.
func (t *stringTable) lookup(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.m == nil {
		t.m = make(map[string]string)
	}
	if len(t.m) < stringTableCap {
		t.m[s] = s
	}
	return s
}

func (r *bitReader) remaining() int { return len(r.bits) - r.pos }

// charTo6bit maps an ASCII character to the AIS 6-bit character set.
// Characters outside the set map to 0 ('@', "no character").
func charTo6bit(c byte) byte {
	switch {
	case c >= '@' && c <= '_': // @A-Z[\]^_
		return c - '@'
	case c >= ' ' && c <= '?': // space through ?
		return c
	default:
		return 0
	}
}

// sixbitToChar is the inverse of charTo6bit.
func sixbitToChar(v byte) byte {
	v &= 0x3F
	if v < 32 {
		return v + '@'
	}
	return v
}

// armorPayload converts a bit string into the ASCII payload armoring used by
// AIVDM sentences: every 6 bits become one character. It returns the payload
// and the number of fill bits added to complete the final character.
func armorPayload(bits []byte) (payload string, fill int) {
	n := len(bits)
	rem := n % 6
	if rem != 0 {
		fill = 6 - rem
	}
	var sb strings.Builder
	sb.Grow((n + fill) / 6)
	for i := 0; i < n; i += 6 {
		var v byte
		for j := 0; j < 6; j++ {
			v <<= 1
			if i+j < n {
				v |= bits[i+j]
			}
		}
		sb.WriteByte(armorChar(v))
	}
	return sb.String(), fill
}

// unarmorAppend converts an armored payload back into a bit string,
// dropping the given number of fill bits from the end: it appends
// the unarmored bits to dst (reusing its capacity) so a decoder can hold
// one buffer across sentences.
func unarmorAppend(dst []byte, payload []byte, fill int) ([]byte, error) {
	base := len(dst)
	for i := 0; i < len(payload); i++ {
		v, ok := unarmorChar(payload[i])
		if !ok {
			return dst[:base], fmt.Errorf("ais: invalid armor character %q at %d", payload[i], i)
		}
		for j := 5; j >= 0; j-- {
			dst = append(dst, v>>uint(j)&1)
		}
	}
	if fill < 0 || fill > 5 || fill > len(dst)-base {
		return dst[:base], fmt.Errorf("ais: invalid fill bit count %d", fill)
	}
	return dst[:len(dst)-fill], nil
}

// armorChar maps a 6-bit value to its AIVDM payload character.
func armorChar(v byte) byte {
	v &= 0x3F
	c := v + 48
	if c > 87 {
		c += 8
	}
	return c
}

// unarmorChar maps an AIVDM payload character back to its 6-bit value.
func unarmorChar(c byte) (byte, bool) {
	if c >= 48 && c <= 87 {
		return c - 48, true
	}
	if c >= 96 && c <= 119 {
		return c - 56, true
	}
	return 0, false
}
