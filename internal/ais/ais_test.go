package ais

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func TestArmorRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		payload, fill := armorPayload(bits)
		back, err := unarmorPayload(payload, fill)
		if err != nil {
			return false
		}
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArmorCharTable(t *testing.T) {
	// Every 6-bit value must armor to a distinct valid character and back.
	seen := map[byte]bool{}
	for v := byte(0); v < 64; v++ {
		c := armorChar(v)
		if seen[c] {
			t.Fatalf("armor char collision at %d", v)
		}
		seen[c] = true
		got, ok := unarmorChar(c)
		if !ok || got != v {
			t.Fatalf("unarmor(armor(%d)) = %d, ok=%v", v, got, ok)
		}
	}
	if _, ok := unarmorChar('X' + 1); ok { // 'Y' = 89 is not a valid armor char
		t.Error("char 89 should be invalid")
	}
}

func TestSixbitTextRoundTrip(t *testing.T) {
	names := []string{"EVER GIVEN", "MAERSK ALABAMA 7", "L'AUDACIEUSE", "A", ""}
	for _, name := range names {
		w := &bitWriter{}
		w.writeString(name, 20)
		r := &bitReader{bits: w.bits}
		got := r.readString(20)
		want := strings.ToUpper(name)
		// The 6-bit charset has no lowercase and ' maps into the set.
		if got != want {
			t.Errorf("name round trip: %q -> %q", want, got)
		}
	}
}

func TestBitReaderShortPayload(t *testing.T) {
	r := &bitReader{bits: []byte{1, 0, 1}}
	r.readUint(8)
	if r.err == nil {
		t.Error("expected short payload error")
	}
	if _, err := DecodePayload([]byte{0, 0, 0, 0, 0, 1, 0, 0}); err == nil {
		t.Error("decoding a truncated type-1 payload should fail")
	}
}

func randPositionReport(r *rand.Rand, classB bool) *PositionReport {
	p := &PositionReport{
		Type:      TypePositionA,
		MMSI:      uint32(200000000 + r.Intn(599999999)),
		Status:    NavStatus(r.Intn(9)),
		TurnRate:  float64(r.Intn(40) - 20),
		SpeedKn:   float64(r.Intn(400)) / 10,
		Accuracy:  r.Intn(2) == 0,
		Position:  geo.Point{Lat: r.Float64()*160 - 80, Lon: r.Float64()*340 - 170},
		CourseDeg: float64(r.Intn(3599)) / 10,
		Heading:   r.Intn(360),
		Second:    r.Intn(60),
		RAIM:      r.Intn(2) == 0,
	}
	if classB {
		p.Type = TypePositionB
		p.Status = StatusNotDefined
		p.TurnRate = 0
	}
	return p
}

func TestPositionReportRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		classB := i%3 == 0
		orig := randPositionReport(r, classB)
		bits, err := EncodePayload(orig)
		if err != nil {
			t.Fatal(err)
		}
		wantBits := 168
		if len(bits) != wantBits {
			t.Fatalf("position report should be %d bits, got %d", wantBits, len(bits))
		}
		decoded, err := DecodePayload(bits)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decoded.(*PositionReport)
		if !ok {
			t.Fatalf("decoded %T, want *PositionReport", decoded)
		}
		if got.MMSI != orig.MMSI {
			t.Fatalf("MMSI %d != %d", got.MMSI, orig.MMSI)
		}
		if got.Status != orig.Status {
			t.Fatalf("status %v != %v", got.Status, orig.Status)
		}
		if math.Abs(got.SpeedKn-orig.SpeedKn) > 0.051 {
			t.Fatalf("speed %.2f != %.2f", got.SpeedKn, orig.SpeedKn)
		}
		if math.Abs(got.CourseDeg-orig.CourseDeg) > 0.051 {
			t.Fatalf("course %.2f != %.2f", got.CourseDeg, orig.CourseDeg)
		}
		// Position quantum is 1/600000 degree ≈ 0.19 m; allow 1 m.
		if d := geo.Distance(got.Position, orig.Position); d > 1.0 {
			t.Fatalf("position moved %.2f m in round trip", d)
		}
		if got.Heading != orig.Heading || got.Second != orig.Second {
			t.Fatalf("heading/second mismatch")
		}
	}
}

func TestTurnRateRoundTrip(t *testing.T) {
	for _, rot := range []float64{0, 1, -1, 5.5, -5.5, 100, -100, 700} {
		enc := encodeROT(rot)
		dec := decodeROT(enc)
		// The companding is lossy; verify sign and coarse magnitude.
		if rot == 0 && dec != 0 {
			t.Errorf("ROT 0 should round trip exactly, got %f", dec)
		}
		if rot > 0 && dec < 0 || rot < 0 && dec > 0 {
			t.Errorf("ROT sign flipped: %f -> %f", rot, dec)
		}
		if rot != 0 && rot >= -700 && rot <= 700 {
			if math.Abs(dec-rot) > math.Abs(rot)*0.25+0.5 {
				t.Errorf("ROT %f decoded as %f", rot, dec)
			}
		}
	}
}

func TestStaticVoyageRoundTrip(t *testing.T) {
	orig := &StaticVoyage{
		MMSI:        227006760,
		IMO:         9074729,
		CallSign:    "FQ8L",
		ShipName:    "SALMON RUNNER",
		ShipType:    ShipTypeCargo,
		DimBow:      120,
		DimStern:    40,
		DimPort:     12,
		DimStarb:    10,
		Draught:     7.5,
		Destination: "MARSEILLE",
		ETA:         ETA{Month: 6, Day: 12, Hour: 14, Minute: 30},
	}
	bits, err := EncodePayload(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 424 {
		t.Fatalf("type 5 should be 424 bits, got %d", len(bits))
	}
	decoded, err := DecodePayload(bits)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.(*StaticVoyage)
	if got.MMSI != orig.MMSI || got.IMO != orig.IMO {
		t.Errorf("identity mismatch: %+v", got)
	}
	if got.CallSign != orig.CallSign || got.ShipName != orig.ShipName {
		t.Errorf("text mismatch: %q %q", got.CallSign, got.ShipName)
	}
	if got.ShipType != orig.ShipType || got.Destination != orig.Destination {
		t.Errorf("type/destination mismatch: %+v", got)
	}
	if got.Length() != 160 || got.Beam() != 22 {
		t.Errorf("dimensions mismatch: len=%d beam=%d", got.Length(), got.Beam())
	}
	if math.Abs(got.Draught-7.5) > 0.05 {
		t.Errorf("draught %f", got.Draught)
	}
	if got.ETA != orig.ETA {
		t.Errorf("ETA %+v != %+v", got.ETA, orig.ETA)
	}
}

func TestStaticBRoundTrip(t *testing.T) {
	orig := &StaticB{
		MMSI:     235082896,
		ShipName: "WANDERER",
		ShipType: ShipTypeFishing,
		CallSign: "2GCW",
		DimBow:   10, DimStern: 5, DimPort: 2, DimStarb: 2,
	}
	// Part A carries the name.
	orig.Part = 1
	bitsA, err := EncodePayload(orig)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := DecodePayload(bitsA)
	if err != nil {
		t.Fatal(err)
	}
	a := gotA.(*StaticB)
	if a.Part != 1 || a.ShipName != "WANDERER" || a.MMSI != orig.MMSI {
		t.Errorf("part A mismatch: %+v", a)
	}
	// Part B carries type, call sign, dimensions.
	orig.Part = 2
	bitsB, err := EncodePayload(orig)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := DecodePayload(bitsB)
	if err != nil {
		t.Fatal(err)
	}
	b := gotB.(*StaticB)
	if b.Part != 2 || b.ShipType != ShipTypeFishing || b.CallSign != "2GCW" {
		t.Errorf("part B mismatch: %+v", b)
	}
	if b.DimBow != 10 || b.DimStern != 5 {
		t.Errorf("part B dims mismatch: %+v", b)
	}
}

func TestSentenceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := NewDecoder()
	decoded := 0
	for i := 0; i < 200; i++ {
		orig := randPositionReport(r, false)
		lines, err := EncodeSentences(orig, i, "A")
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 1 {
			t.Fatalf("position report should fit one sentence, got %d", len(lines))
		}
		if !strings.HasPrefix(lines[0], "!AIVDM,1,1,,A,") {
			t.Fatalf("unexpected sentence framing: %s", lines[0])
		}
		msg, err := d.Decode(lines[0])
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(*PositionReport)
		if got.MMSI != orig.MMSI {
			t.Fatalf("round trip MMSI mismatch")
		}
		decoded++
	}
	if decoded != 200 {
		t.Errorf("decoded %d of 200 messages", decoded)
	}
}

func TestMultiFragmentType5(t *testing.T) {
	orig := &StaticVoyage{
		MMSI: 227006760, IMO: 9074729, CallSign: "FQ8L",
		ShipName: "LONG NAMED VESSEL XX", ShipType: ShipTypeTanker,
		DimBow: 200, DimStern: 80, DimPort: 20, DimStarb: 20,
		Draught: 14.2, Destination: "ROTTERDAM",
	}
	lines, err := EncodeSentences(orig, 3, "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("type 5 must fragment, got %d sentences", len(lines))
	}
	d := NewDecoder()
	// Feed fragments out of order: the decoder must reassemble.
	msg, err := d.Decode(lines[1])
	if err != nil || msg != nil {
		t.Fatalf("first fragment should be pending, got msg=%v err=%v", msg, err)
	}
	msg, err = d.Decode(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	if msg == nil {
		t.Fatal("message should complete after all fragments")
	}
	got := msg.(*StaticVoyage)
	if got.ShipName != orig.ShipName || got.Destination != orig.Destination {
		t.Errorf("fragment reassembly corrupted text: %+v", got)
	}
}

func TestDecoderRejectsCorruption(t *testing.T) {
	orig := randPositionReport(rand.New(rand.NewSource(1)), false)
	lines, _ := EncodeSentences(orig, 0, "A")
	line := lines[0]

	d := NewDecoder()
	// Flip a payload character: checksum must catch it.
	bad := []byte(line)
	mid := len(bad) / 2
	bad[mid] ^= 0x01
	if _, err := d.Decode(string(bad)); err == nil {
		t.Error("corrupted sentence should fail checksum")
	}
	if _, err := ParseSentence(string(bad)); err == nil {
		t.Error("corrupted sentence should be rejected at the sentence layer")
	}
	// Garbage lines.
	for _, g := range []string{"", "$GPGGA,foo*00", "!AIVDM,1,1,,A", "!AIVDM,1,1,,A,xx,0*FF"} {
		if _, err := d.Decode(g); err == nil {
			t.Errorf("garbage %q should fail", g)
		}
	}
}

func TestResetPending(t *testing.T) {
	orig := &StaticVoyage{MMSI: 227006760, ShipName: "X", Destination: "Y"}
	lines, _ := EncodeSentences(orig, 5, "A")
	d := NewDecoder()
	if _, err := d.Decode(lines[0]); err != nil {
		t.Fatal(err)
	}
	if n := d.ResetPending(); n != 1 {
		t.Errorf("expected 1 pending group, got %d", n)
	}
	if n := d.ResetPending(); n != 0 {
		t.Errorf("expected 0 after reset, got %d", n)
	}
}

func TestChecksumKnown(t *testing.T) {
	// Verify against a well-known reference sentence from the AIVDM spec.
	const ref = "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"
	s, err := ParseSentence(ref)
	if err != nil {
		t.Fatalf("reference sentence rejected: %v", err)
	}
	if s.Format() != ref {
		t.Errorf("reformat mismatch:\n got %s\nwant %s", s.Format(), ref)
	}
	d := NewDecoder()
	msg, err := d.Decode(ref)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := msg.(*PositionReport)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if p.MMSI != 477553000 {
		t.Errorf("reference MMSI = %d, want 477553000", p.MMSI)
	}
	if p.Status != StatusMoored {
		t.Errorf("reference status = %v, want moored", p.Status)
	}
	if p.SpeedKn != 0 {
		t.Errorf("reference speed = %v, want 0", p.SpeedKn)
	}
}

func TestValidMMSI(t *testing.T) {
	valid := []uint32{201000000, 477553000, 799999999}
	invalid := []uint32{0, 199999999, 800000000, 999999999}
	for _, m := range valid {
		if !ValidMMSI(m) {
			t.Errorf("%d should be valid", m)
		}
	}
	for _, m := range invalid {
		if ValidMMSI(m) {
			t.Errorf("%d should be invalid", m)
		}
	}
}

func TestSentinelValues(t *testing.T) {
	p := &PositionReport{
		Type: TypePositionA, MMSI: 211000000,
		SpeedKn:   SpeedNotAvailable,
		CourseDeg: CourseNotAvailable,
		Heading:   HeadingNotAvailable,
		Position:  geo.Point{Lat: LatNotAvailable, Lon: LonNotAvailable},
	}
	bits, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodePayload(bits)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.(*PositionReport)
	if got.SpeedKn != SpeedNotAvailable {
		t.Errorf("speed sentinel lost: %v", got.SpeedKn)
	}
	if got.CourseDeg != CourseNotAvailable {
		t.Errorf("course sentinel lost: %v", got.CourseDeg)
	}
	if got.Heading != HeadingNotAvailable {
		t.Errorf("heading sentinel lost: %v", got.Heading)
	}
	if got.HasPosition() {
		t.Error("sentinel position should not count as a fix")
	}
}

func TestMMSIOf(t *testing.T) {
	if MMSIOf(&PositionReport{MMSI: 5}) != 5 {
		t.Error("position report MMSI")
	}
	if MMSIOf(&StaticVoyage{MMSI: 6}) != 6 {
		t.Error("static voyage MMSI")
	}
	if MMSIOf(&StaticB{MMSI: 7}) != 7 {
		t.Error("static B MMSI")
	}
	if MMSIOf("nonsense") != 0 {
		t.Error("unknown type should give 0")
	}
}

func BenchmarkEncodePosition(b *testing.B) {
	p := randPositionReport(rand.New(rand.NewSource(1)), false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSentences(p, i, "A"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePosition(b *testing.B) {
	p := randPositionReport(rand.New(rand.NewSource(1)), false)
	lines, _ := EncodeSentences(p, 0, "A")
	d := NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(lines[0]); err != nil {
			b.Fatal(err)
		}
	}
}
