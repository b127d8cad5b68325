package ais

// The payload-level decode oracle: the tests and FuzzDecode check the
// sentence decoder against these, which skip the Decoder's fragment
// assembly, buffer reuse and string interning.

// DecodePayload decodes an unarmored AIS bit payload into one of the
// supported message structs.
func DecodePayload(bits []byte) (any, error) {
	return decodePayloadWith(bits, nil)
}

// unarmorPayload converts an armored payload back into a bit string,
// dropping the given number of fill bits from the end.
func unarmorPayload(payload string, fill int) ([]byte, error) {
	return unarmorAppend(make([]byte, 0, len(payload)*6), []byte(payload), fill)
}

// Test-only helpers: nothing outside the tests needs them.

// HeadingNotAvailable is the standard's "not available" heading (raw 511).
const HeadingNotAvailable = 511

// MMSIOf extracts the MMSI from any supported message type, or 0.
func MMSIOf(msg any) uint32 {
	switch m := msg.(type) {
	case *PositionReport:
		return m.MMSI
	case *StaticVoyage:
		return m.MMSI
	case *StaticB:
		return m.MMSI
	default:
		return 0
	}
}

// ResetPending drops any partially assembled fragment groups and returns
// how many were dropped.
func (d *Decoder) ResetPending() int {
	n := len(d.pending)
	d.pending = make(map[string][]Sentence)
	return n
}
