package ais

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// MessageType identifies the ITU-R M.1371 message kind.
type MessageType int

// Message types implemented by this codec.
const (
	TypePositionA       MessageType = 1 // Class A position report (also 2, 3)
	TypePositionAAssign MessageType = 2
	TypePositionAPolled MessageType = 3
	TypeStaticVoyage    MessageType = 5  // Class A static and voyage data
	TypePositionB       MessageType = 18 // Class B position report
	TypeStaticB         MessageType = 24 // Class B static data
)

// NavStatus is the navigational status field of Class A position reports.
type NavStatus int

// Navigational status values (ITU-R M.1371 table 45).
const (
	StatusUnderWayEngine NavStatus = 0
	StatusAtAnchor       NavStatus = 1
	StatusNotUnderCmd    NavStatus = 2
	StatusRestricted     NavStatus = 3
	StatusConstrained    NavStatus = 4
	StatusMoored         NavStatus = 5
	StatusAground        NavStatus = 6
	StatusFishing        NavStatus = 7
	StatusUnderWaySail   NavStatus = 8
	StatusNotDefined     NavStatus = 15
)

// String returns the conventional short name of the status.
func (s NavStatus) String() string {
	switch s {
	case StatusUnderWayEngine:
		return "under way using engine"
	case StatusAtAnchor:
		return "at anchor"
	case StatusNotUnderCmd:
		return "not under command"
	case StatusRestricted:
		return "restricted manoeuvrability"
	case StatusConstrained:
		return "constrained by draught"
	case StatusMoored:
		return "moored"
	case StatusAground:
		return "aground"
	case StatusFishing:
		return "engaged in fishing"
	case StatusUnderWaySail:
		return "under way sailing"
	case StatusNotDefined:
		return "not defined"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ShipType is the AIS ship-and-cargo type code (two decimal digits).
type ShipType int

// Common ship type codes.
const (
	ShipTypeUnknown   ShipType = 0
	ShipTypeFishing   ShipType = 30
	ShipTypeTug       ShipType = 52
	ShipTypePassenger ShipType = 60
	ShipTypeCargo     ShipType = 70
	ShipTypeTanker    ShipType = 80
)

// String returns a coarse class name for the code.
func (st ShipType) String() string {
	switch {
	case st == 30:
		return "fishing"
	case st == 52:
		return "tug"
	case st >= 60 && st < 70:
		return "passenger"
	case st >= 70 && st < 80:
		return "cargo"
	case st >= 80 && st < 90:
		return "tanker"
	case st == 0:
		return "unknown"
	default:
		return fmt.Sprintf("type(%d)", int(st))
	}
}

// Sentinel values defined by the standard for "not available".
const (
	SpeedNotAvailable  = 102.3 // knots; raw 1023
	CourseNotAvailable = 360.0 // degrees; raw 3600
	LonNotAvailable    = 181.0 // degrees
	LatNotAvailable    = 91.0  // degrees
)

// PositionReport is a decoded Class A (types 1–3) or Class B (type 18)
// position report. Speeds are in knots and angles in degrees, matching the
// radio encoding; convert with geo.Knot for SI work.
type PositionReport struct {
	Type      MessageType
	MMSI      uint32
	Status    NavStatus // Class A only; StatusNotDefined for Class B
	TurnRate  float64   // degrees/min, NaN-free: 0 when unavailable
	SpeedKn   float64   // speed over ground, knots; SpeedNotAvailable sentinel
	Accuracy  bool      // true = high (< 10 m)
	Position  geo.Point
	CourseDeg float64 // course over ground; CourseNotAvailable sentinel
	Heading   int     // true heading; HeadingNotAvailable sentinel
	Second    int     // UTC second of the report (0–59; 60 = n/a)
	RAIM      bool
}

// HasPosition reports whether the report carries a valid position fix.
func (p *PositionReport) HasPosition() bool {
	return p.Position.Lon != LonNotAvailable && p.Position.Lat != LatNotAvailable &&
		p.Position.Valid()
}

// StaticVoyage is a decoded type 5 (Class A static and voyage) message.
type StaticVoyage struct {
	MMSI        uint32
	IMO         uint32
	CallSign    string
	ShipName    string
	ShipType    ShipType
	DimBow      int // metres to bow from reference point
	DimStern    int
	DimPort     int
	DimStarb    int
	Draught     float64 // metres
	Destination string
	ETA         ETA
}

// Length returns the overall length implied by the dimension fields.
func (s *StaticVoyage) Length() int { return s.DimBow + s.DimStern }

// Beam returns the overall beam implied by the dimension fields.
func (s *StaticVoyage) Beam() int { return s.DimPort + s.DimStarb }

// ETA is the estimated time of arrival field of a type 5 message (month,
// day, hour, minute; zero month means not available).
type ETA struct {
	Month, Day, Hour, Minute int
}

// IsZero reports whether the ETA is the "not available" value.
func (e ETA) IsZero() bool { return e.Month == 0 }

// StaticB is a decoded type 24 (Class B static) message. Part A carries the
// name; part B the type, call sign and dimensions. This struct is the merge
// of both parts; Part records which parts have been seen.
type StaticB struct {
	MMSI     uint32
	Part     int // bitmask: 1 = part A seen, 2 = part B seen
	ShipName string
	ShipType ShipType
	CallSign string
	DimBow   int
	DimStern int
	DimPort  int
	DimStarb int
}

// ValidMMSI reports whether m is a structurally plausible vessel MMSI:
// nine digits whose leading MID digit is in 2–7 (ship stations).
func ValidMMSI(m uint32) bool {
	if m < 200000000 || m > 799999999 {
		return false
	}
	return true
}

// encodePosition writes the shared 168-bit layout of types 1–3.
func (p *PositionReport) encode() []byte {
	w := &bitWriter{}
	t := p.Type
	if t != TypePositionA && t != TypePositionAAssign && t != TypePositionAPolled && t != TypePositionB {
		t = TypePositionA
	}
	if t == TypePositionB {
		return p.encodeB()
	}
	w.writeUint(uint64(t), 6)
	w.writeUint(0, 2) // repeat
	w.writeUint(uint64(p.MMSI), 30)
	w.writeUint(uint64(p.Status)&0xF, 4)
	w.writeInt(encodeROT(p.TurnRate), 8)
	w.writeUint(encodeSpeed(p.SpeedKn), 10)
	w.writeUint(boolBit(p.Accuracy), 1)
	w.writeInt(encodeLon(p.Position.Lon), 28)
	w.writeInt(encodeLat(p.Position.Lat), 27)
	w.writeUint(encodeCourse(p.CourseDeg), 12)
	w.writeUint(uint64(clampInt(p.Heading, 0, 511)), 9)
	w.writeUint(uint64(clampInt(p.Second, 0, 63)), 6)
	w.writeUint(0, 2) // manoeuvre indicator
	w.writeUint(0, 3) // spare
	w.writeUint(boolBit(p.RAIM), 1)
	w.writeUint(0, 19) // radio status
	return w.bits
}

// encodeB writes the 168-bit type 18 layout.
func (p *PositionReport) encodeB() []byte {
	w := &bitWriter{}
	w.writeUint(uint64(TypePositionB), 6)
	w.writeUint(0, 2)
	w.writeUint(uint64(p.MMSI), 30)
	w.writeUint(0, 8) // reserved
	w.writeUint(encodeSpeed(p.SpeedKn), 10)
	w.writeUint(boolBit(p.Accuracy), 1)
	w.writeInt(encodeLon(p.Position.Lon), 28)
	w.writeInt(encodeLat(p.Position.Lat), 27)
	w.writeUint(encodeCourse(p.CourseDeg), 12)
	w.writeUint(uint64(clampInt(p.Heading, 0, 511)), 9)
	w.writeUint(uint64(clampInt(p.Second, 0, 63)), 6)
	w.writeUint(0, 2) // reserved
	w.writeUint(1, 1) // CS unit
	w.writeUint(0, 1) // display
	w.writeUint(0, 1) // DSC
	w.writeUint(0, 1) // band
	w.writeUint(0, 1) // message 22
	w.writeUint(0, 1) // assigned
	w.writeUint(boolBit(p.RAIM), 1)
	w.writeUint(0, 20) // radio status
	return w.bits
}

func decodePositionA(r *bitReader, t MessageType) (*PositionReport, error) {
	p := &PositionReport{Type: t}
	p.MMSI = uint32(r.readUint(30))
	p.Status = NavStatus(r.readUint(4))
	p.TurnRate = decodeROT(r.readInt(8))
	p.SpeedKn = decodeSpeed(r.readUint(10))
	p.Accuracy = r.readUint(1) == 1
	p.Position.Lon = decodeLon(r.readInt(28))
	p.Position.Lat = decodeLat(r.readInt(27))
	p.CourseDeg = decodeCourse(r.readUint(12))
	p.Heading = int(r.readUint(9))
	p.Second = int(r.readUint(6))
	r.readUint(2 + 3 + 1 + 19) // manoeuvre, spare, raim, radio — raim folded below
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

func decodePositionB(r *bitReader) (*PositionReport, error) {
	p := &PositionReport{Type: TypePositionB, Status: StatusNotDefined}
	p.MMSI = uint32(r.readUint(30))
	r.readUint(8)
	p.SpeedKn = decodeSpeed(r.readUint(10))
	p.Accuracy = r.readUint(1) == 1
	p.Position.Lon = decodeLon(r.readInt(28))
	p.Position.Lat = decodeLat(r.readInt(27))
	p.CourseDeg = decodeCourse(r.readUint(12))
	p.Heading = int(r.readUint(9))
	p.Second = int(r.readUint(6))
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// encode writes the 424-bit type 5 layout.
func (s *StaticVoyage) encode() []byte {
	w := &bitWriter{}
	w.writeUint(uint64(TypeStaticVoyage), 6)
	w.writeUint(0, 2)
	w.writeUint(uint64(s.MMSI), 30)
	w.writeUint(0, 2) // AIS version
	w.writeUint(uint64(s.IMO), 30)
	w.writeString(s.CallSign, 7)
	w.writeString(s.ShipName, 20)
	w.writeUint(uint64(clampInt(int(s.ShipType), 0, 255)), 8)
	w.writeUint(uint64(clampInt(s.DimBow, 0, 511)), 9)
	w.writeUint(uint64(clampInt(s.DimStern, 0, 511)), 9)
	w.writeUint(uint64(clampInt(s.DimPort, 0, 63)), 6)
	w.writeUint(uint64(clampInt(s.DimStarb, 0, 63)), 6)
	w.writeUint(1, 4) // EPFD: GPS
	w.writeUint(uint64(clampInt(s.ETA.Month, 0, 15)), 4)
	w.writeUint(uint64(clampInt(s.ETA.Day, 0, 31)), 5)
	w.writeUint(uint64(clampInt(s.ETA.Hour, 0, 31)), 5)
	w.writeUint(uint64(clampInt(s.ETA.Minute, 0, 63)), 6)
	w.writeUint(uint64(clampInt(int(s.Draught*10+0.5), 0, 255)), 8)
	w.writeString(s.Destination, 20)
	w.writeUint(0, 1) // DTE
	w.writeUint(0, 1) // spare
	return w.bits
}

func decodeStaticVoyage(r *bitReader) (*StaticVoyage, error) {
	s := &StaticVoyage{}
	s.MMSI = uint32(r.readUint(30))
	r.readUint(2) // AIS version
	s.IMO = uint32(r.readUint(30))
	s.CallSign = r.readString(7)
	s.ShipName = r.readString(20)
	s.ShipType = ShipType(r.readUint(8))
	s.DimBow = int(r.readUint(9))
	s.DimStern = int(r.readUint(9))
	s.DimPort = int(r.readUint(6))
	s.DimStarb = int(r.readUint(6))
	r.readUint(4) // EPFD
	s.ETA.Month = int(r.readUint(4))
	s.ETA.Day = int(r.readUint(5))
	s.ETA.Hour = int(r.readUint(5))
	s.ETA.Minute = int(r.readUint(6))
	s.Draught = float64(r.readUint(8)) / 10
	s.Destination = r.readString(20)
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// encodeA returns the 160-bit type 24 part A layout (ship name).
func (s *StaticB) encodeA() []byte {
	w := &bitWriter{}
	w.writeUint(uint64(TypeStaticB), 6)
	w.writeUint(0, 2)
	w.writeUint(uint64(s.MMSI), 30)
	w.writeUint(0, 2) // part number A
	w.writeString(s.ShipName, 20)
	return w.bits
}

// encodeB24 returns the 168-bit type 24 part B layout.
func (s *StaticB) encodeB24() []byte {
	w := &bitWriter{}
	w.writeUint(uint64(TypeStaticB), 6)
	w.writeUint(0, 2)
	w.writeUint(uint64(s.MMSI), 30)
	w.writeUint(1, 2) // part number B
	w.writeUint(uint64(clampInt(int(s.ShipType), 0, 255)), 8)
	w.writeString("", 7) // vendor id
	w.writeString(s.CallSign, 7)
	w.writeUint(uint64(clampInt(s.DimBow, 0, 511)), 9)
	w.writeUint(uint64(clampInt(s.DimStern, 0, 511)), 9)
	w.writeUint(uint64(clampInt(s.DimPort, 0, 63)), 6)
	w.writeUint(uint64(clampInt(s.DimStarb, 0, 63)), 6)
	w.writeUint(0, 6) // spare
	return w.bits
}

func decodeStaticB(r *bitReader) (*StaticB, error) {
	s := &StaticB{}
	s.MMSI = uint32(r.readUint(30))
	part := r.readUint(2)
	if r.err != nil {
		return nil, r.err
	}
	if part == 0 {
		s.Part = 1
		s.ShipName = r.readString(20)
	} else {
		s.Part = 2
		s.ShipType = ShipType(r.readUint(8))
		r.readUint(42) // vendor
		s.CallSign = r.readString(7)
		s.DimBow = int(r.readUint(9))
		s.DimStern = int(r.readUint(9))
		s.DimPort = int(r.readUint(6))
		s.DimStarb = int(r.readUint(6))
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// decodePayloadWith decodes an unarmored AIS bit payload into one of the
// supported message structs, with an optional intern table for decoded
// text fields — the Decoder passes its own so repeated static
// rebroadcasts share string storage.
func decodePayloadWith(bits []byte, interned *stringTable) (any, error) {
	r := &bitReader{bits: bits, intern: interned}
	t := MessageType(r.readUint(6))
	r.readUint(2) // repeat indicator
	if r.err != nil {
		return nil, r.err
	}
	switch t {
	case TypePositionA, TypePositionAAssign, TypePositionAPolled:
		return decodePositionA(r, t)
	case TypeStaticVoyage:
		return decodeStaticVoyage(r)
	case TypePositionB:
		return decodePositionB(r)
	case TypeStaticB:
		return decodeStaticB(r)
	default:
		return nil, fmt.Errorf("ais: unsupported message type %d", t)
	}
}

// EncodePayload encodes a supported message struct into an AIS bit payload.
func EncodePayload(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *PositionReport:
		return m.encode(), nil
	case *StaticVoyage:
		return m.encode(), nil
	case *StaticB:
		if m.Part == 2 {
			return m.encodeB24(), nil
		}
		return m.encodeA(), nil
	default:
		return nil, fmt.Errorf("ais: cannot encode %T", msg)
	}
}

// --- field codecs -----------------------------------------------------------

func encodeSpeed(kn float64) uint64 {
	if kn < 0 || kn >= SpeedNotAvailable {
		return 1023
	}
	v := int(kn*10 + 0.5)
	if v > 1022 {
		v = 1022
	}
	return uint64(v)
}

func decodeSpeed(v uint64) float64 {
	if v == 1023 {
		return SpeedNotAvailable
	}
	return float64(v) / 10
}

func encodeCourse(deg float64) uint64 {
	if deg < 0 || deg >= CourseNotAvailable {
		return 3600
	}
	v := int(deg*10 + 0.5)
	if v >= 3600 {
		v = 0
	}
	return uint64(v)
}

func decodeCourse(v uint64) float64 {
	if v >= 3600 {
		return CourseNotAvailable
	}
	return float64(v) / 10
}

func encodeLon(deg float64) int64 { return encodeDegrees(deg, LonNotAvailable, 28) }

func decodeLon(v int64) float64 { return float64(v) / 600000 }

func encodeLat(deg float64) int64 { return encodeDegrees(deg, LatNotAvailable, 27) }

func decodeLat(v int64) float64 { return float64(v) / 600000 }

// encodeDegrees quantises an angle to 1/10000 minute in an n-bit signed
// field. It keeps every angle the field can carry, so what a corrupt frame
// decodes to (up to ±223° of longitude) re-encodes to the same frame;
// anything else — NaN, past the field — becomes the not-available sentinel.
func encodeDegrees(deg, notAvailable float64, n int) int64 {
	lim := float64(int64(1) << (n - 1))
	v := deg * 600000
	if !(v > -lim-0.5 && v < lim-0.5) {
		v = notAvailable * 600000
	}
	return int64(roundHalfAway(v))
}

// encodeROT encodes rate of turn in degrees/minute using the standard's
// 4.733·sqrt(rot) companding. 128 would mean "not available"; we encode 0
// for unavailable to keep the field NaN-free end to end.
func encodeROT(degPerMin float64) int64 {
	if degPerMin == 0 {
		return 0
	}
	sign := 1.0
	if degPerMin < 0 {
		sign = -1
		degPerMin = -degPerMin
	}
	v := 4.733 * math.Sqrt(degPerMin)
	if v > 126 {
		v = 126
	}
	return int64(sign * roundHalfAway(v))
}

func decodeROT(v int64) float64 {
	if v == 0 || v == -128 {
		return 0
	}
	sign := 1.0
	f := float64(v)
	if f < 0 {
		sign = -1
		f = -f
	}
	if f > 126 {
		f = 126
	}
	r := f / 4.733
	return sign * r * r
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}
