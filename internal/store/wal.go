package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
)

// WAL segment layout (version 1):
//
//	header:  magic u32 "MWAL" | version u16
//	frame:   length u32 | crc32c u32 (of payload) | payload
//	payload: mmsi u32 | unixnano i64 | lat f64 | lon f64 |
//	         speed u16 (centi-knots) | course u16 (centi-degrees) | status u8
//
// Everything is little-endian. Records carry the same quantisation as the
// tstore snapshot encoding (WriteTo/Load), so a record read back from the
// WAL equals the same record read back from a compacted snapshot —
// TestDiskRoundTripMatchesWriteTo pins the equivalence. Frames are CRC32C
// (Castagnoli) checksummed so recovery can tell a torn tail from good data.
const (
	segMagic   = 0x4D57414C // "MWAL"
	segVersion = 1

	segHeaderSize = 6
	frameHeadSize = 8
	recordSize    = 33
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Quantize returns s as it will read back after a disk round trip: time
// truncated to nanoseconds UTC, speed and course clamped to [0, 655.35]
// and rounded to centi-units — the same quantisation tstore's snapshot
// encoding applies.
//
//lint:ignore deadexport TestEngineRestartRecoversPersistedState compares recovered records through it
func Quantize(s model.VesselState) model.VesselState {
	s.At = time.Unix(0, s.At.UnixNano()).UTC()
	s.SpeedKn = float64(quant100(s.SpeedKn)) / 100
	s.CourseDeg = float64(quant100(s.CourseDeg)) / 100
	return s
}

func quant100(v float64) uint16 {
	if v < 0 {
		v = 0
	}
	if v > 655.35 {
		v = 655.35
	}
	return uint16(math.Round(v * 100))
}

// appendRecord appends the 33-byte record payload encoding of s to dst.
func appendRecord(dst []byte, s model.VesselState) []byte {
	var b [recordSize]byte
	binary.LittleEndian.PutUint32(b[0:], s.MMSI)
	binary.LittleEndian.PutUint64(b[4:], uint64(s.At.UnixNano()))
	binary.LittleEndian.PutUint64(b[12:], math.Float64bits(s.Pos.Lat))
	binary.LittleEndian.PutUint64(b[20:], math.Float64bits(s.Pos.Lon))
	binary.LittleEndian.PutUint16(b[28:], quant100(s.SpeedKn))
	binary.LittleEndian.PutUint16(b[30:], quant100(s.CourseDeg))
	b[32] = uint8(s.Status)
	return append(dst, b[:]...)
}

// decodeRecord is the inverse of appendRecord.
func decodeRecord(b []byte) model.VesselState {
	return model.VesselState{
		MMSI: binary.LittleEndian.Uint32(b[0:]),
		At:   time.Unix(0, int64(binary.LittleEndian.Uint64(b[4:]))).UTC(),
		Pos: geo.Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(b[20:])),
		},
		SpeedKn:   float64(binary.LittleEndian.Uint16(b[28:])) / 100,
		CourseDeg: float64(binary.LittleEndian.Uint16(b[30:])) / 100,
		Status:    ais.NavStatus(b[32]),
	}
}

// appendFrame appends one length-prefixed, checksummed frame holding s.
func appendFrame(dst []byte, s model.VesselState) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = appendRecord(dst, s)
	payload := dst[start+frameHeadSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// writeSegmentHeader writes the magic and version of a fresh segment.
func writeSegmentHeader(w io.Writer) error {
	var h [segHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], segMagic)
	binary.LittleEndian.PutUint16(h[4:], segVersion)
	_, err := w.Write(h[:])
	return err
}

// tornMode selects how replaySegment handles a torn tail (a segment that
// ends mid-frame or whose final frames fail the checksum — the expected
// state of the active segment after a crash).
type tornMode int

const (
	// tornError treats any tear as corruption: sealed, non-final
	// segments can never legitimately be mid-write.
	tornError tornMode = iota
	// tornTruncate repairs the tear: the file is truncated back to the
	// last valid frame boundary (a fully headerless file is removed).
	// Writer recovery uses this on the final segment.
	tornTruncate
	// tornIgnore stops at the tear and leaves the file untouched —
	// read-only recovery, safe against a directory a live writer owns.
	tornIgnore
)

// checkSegmentHeader validates a segment's 6-byte header.
func checkSegmentHeader(head []byte, name string) error {
	if m := binary.LittleEndian.Uint32(head[0:]); m != segMagic {
		return fmt.Errorf("store: %s: bad segment magic %08x", name, m)
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != segVersion {
		return fmt.Errorf("store: %s: unsupported segment version %d", name, v)
	}
	return nil
}

// frameLength validates a frame header's length field; a non-empty
// reason reports a tear.
func frameLength(head []byte) (uint32, string) {
	length := binary.LittleEndian.Uint32(head[0:])
	if length != recordSize {
		return 0, fmt.Sprintf("bad frame length %d", length)
	}
	return length, ""
}

// frameDecode checks a frame's payload against its header checksum and
// decodes the record; a non-empty reason reports a tear. Shared by the
// file and migrated-object replay paths so the frame format lives in
// one place.
func frameDecode(head, payload []byte) (model.VesselState, string) {
	if want := binary.LittleEndian.Uint32(head[4:]); crc32.Checksum(payload, castagnoli) != want {
		return model.VesselState{}, "checksum mismatch"
	}
	return decodeRecord(payload), ""
}

// replaySegmentBytes reads every frame of a fully materialised segment
// (a migrated object fetched back from the ObjectStore) into fn. A
// migrated segment was sealed before upload and uploads are atomic, so
// any tear is real corruption — the strictness of tornError without the
// file plumbing.
func replaySegmentBytes(name string, data []byte, fn func(model.VesselState)) (int, error) {
	if len(data) < segHeaderSize {
		return 0, fmt.Errorf("store: %s: migrated segment shorter than its header", name)
	}
	if err := checkSegmentHeader(data, name); err != nil {
		return 0, err
	}
	records := 0
	for off := segHeaderSize; off < len(data); {
		if off+frameHeadSize > len(data) {
			return records, fmt.Errorf("store: %s: partial frame header at offset %d", name, off)
		}
		head := data[off : off+frameHeadSize]
		length, reason := frameLength(head)
		if reason != "" {
			return records, fmt.Errorf("store: %s: %s at offset %d", name, reason, off)
		}
		if off+frameHeadSize+int(length) > len(data) {
			return records, fmt.Errorf("store: %s: partial frame payload at offset %d", name, off)
		}
		rec, reason := frameDecode(head, data[off+frameHeadSize:off+frameHeadSize+int(length)])
		if reason != "" {
			return records, fmt.Errorf("store: %s: %s at offset %d", name, reason, off)
		}
		fn(rec)
		records++
		off += frameHeadSize + int(length)
	}
	return records, nil
}

// replaySegment reads every valid frame of the segment at path into fn,
// handling a torn tail per mode and returning the number of bytes past
// the last valid frame (whether repaired or merely skipped).
func replaySegment(path string, mode tornMode, fn func(model.VesselState)) (records int, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	var head [segHeaderSize]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		if mode != tornError && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			// The crash predates even the header flush: nothing in the
			// file is valid.
			size, serr := f.Seek(0, io.SeekEnd)
			if serr != nil {
				return 0, 0, serr
			}
			if mode == tornIgnore {
				return 0, size, nil
			}
			// Remove it so it cannot trip a later recovery as a
			// non-final segment.
			f.Close()
			return 0, size, os.Remove(path)
		}
		return 0, 0, fmt.Errorf("store: %s: reading segment header: %w", path, err)
	}
	if err := checkSegmentHeader(head[:], path); err != nil {
		return 0, 0, err
	}

	good := int64(segHeaderSize) // offset of the byte after the last valid frame
	var frame [frameHeadSize + recordSize]byte
	for {
		_, err := io.ReadFull(br, frame[:frameHeadSize])
		if err == io.EOF {
			return records, 0, nil // clean end
		}
		tornAt := func(reason string) (int, int64, error) {
			size, serr := f.Seek(0, io.SeekEnd)
			if serr != nil {
				return records, 0, serr
			}
			switch mode {
			case tornError:
				return records, 0, fmt.Errorf(
					"store: %s: %s at offset %d (only the newest segment may be torn)",
					path, reason, good)
			case tornIgnore:
				return records, size - good, nil
			}
			if terr := os.Truncate(path, good); terr != nil {
				return records, 0, terr
			}
			return records, size - good, nil
		}
		if err != nil {
			return tornAt("partial frame header")
		}
		length, reason := frameLength(frame[:frameHeadSize])
		if reason != "" {
			return tornAt(reason)
		}
		payload := frame[frameHeadSize : frameHeadSize+length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return tornAt("partial frame payload")
		}
		rec, reason := frameDecode(frame[:frameHeadSize], payload)
		if reason != "" {
			return tornAt(reason)
		}
		fn(rec)
		records++
		good += int64(frameHeadSize) + int64(length)
	}
}
