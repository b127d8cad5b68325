package ais_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/sim"
)

// FuzzDecode is the decoder's oracle, written before the 6-bit decode
// rewrite the ROADMAP plans so that rewrite has one. An input is a feed:
// lines split on '\n' through one Decoder, so fragments can reassemble,
// and each line again with its checksum made good through a second one, so
// that mutated payloads get past the sentence layer. Decode must never
// panic, and every message a line completes must re-encode through
// EncodeSentences and decode, in a fresh decoder, to the same message.
//
// Bounded run: go test -run='^$' -fuzz=FuzzDecode -fuzztime=15s ./internal/ais
func FuzzDecode(f *testing.F) {
	for _, feed := range fuzzSeeds(f) {
		f.Add(feed)
	}
	f.Fuzz(func(t *testing.T, feed string) {
		raw, fixed := ais.NewDecoder(), ais.NewDecoder()
		for _, line := range strings.Split(feed, "\n") {
			roundTrip(t, raw, line)
			roundTrip(t, fixed, withChecksum(line))
		}
	})
}

// roundTrip decodes line with d and, if that completes a message, checks
// the message survives EncodeSentences and a fresh decoder unchanged.
func roundTrip(t *testing.T, d *ais.Decoder, line string) {
	msg, err := d.Decode(line)
	if err != nil || msg == nil {
		return
	}
	lines, err := ais.EncodeSentences(msg, 0, "A")
	if err != nil {
		t.Fatalf("%q decoded to %T, which does not re-encode: %v", line, msg, err)
	}
	again := ais.NewDecoder()
	var got any
	for _, l := range lines {
		if got, err = again.Decode(l); err != nil {
			t.Fatalf("%q decoded to %+v, whose re-encoding %q does not decode: %v", line, msg, lines, err)
		}
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("%q decoded to %+v; its re-encoding %q decodes to %+v", line, msg, lines, got)
	}
}

// withChecksum replaces the two hex digits after a line's last '*' with the
// checksum of what lies between its '!' and that '*'.
func withChecksum(line string) string {
	star := strings.LastIndexByte(line, '*')
	if !strings.HasPrefix(line, "!") || star < 0 {
		return line
	}
	return fmt.Sprintf("%s*%02X", line[:star], ais.Checksum(line[1:star]))
}

// fuzzSeeds are the corpus the fuzzer starts from: the simulator's default
// defect profile as AIVDM — Class A and B position reports, type 5s with
// their corrupted fields (both fragments of each, one seed) — Class B
// static parts, the reference sentence and the malformed lines the unit
// tests reject.
func fuzzSeeds(tb testing.TB) []string {
	cfg := sim.Config{Seed: 3, NumVessels: 40, Duration: 10 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	cfg.StaticErrorRate = 0.5 // every kind of corrupted static, in a short run
	run, err := sim.Simulate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var msgs []any
	classB := false
	for i := range run.Positions {
		rep := &run.Positions[i].Report
		if b := rep.Type == ais.TypePositionB; len(msgs) < 8 || b && !classB {
			msgs = append(msgs, rep)
			classB = classB || b
		}
	}
	corrupted := map[string]bool{}
	for i := range run.Statics {
		if s := &run.Statics[i]; s.Corrupted && !corrupted[s.BadField] {
			corrupted[s.BadField] = true
			msgs = append(msgs, &s.Msg)
		}
	}
	msgs = append(msgs,
		&ais.StaticB{MMSI: 235082896, Part: 1, ShipName: "WANDERER"},
		&ais.StaticB{MMSI: 235082896, Part: 2, ShipType: ais.ShipTypeFishing, CallSign: "2GCW", DimBow: 10, DimStern: 5, DimPort: 2, DimStarb: 2},
	)
	seeds := []string{
		"!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C",
		"", "garbage", "$GPGGA,foo*00", "!AIVDM,1,1,,A", "!AIVDM,1,1,,A,xx,0*FF",
	}
	for i, m := range msgs {
		lines, err := ais.EncodeSentences(m, i, "B")
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, strings.Join(lines, "\n"))
		if len(lines) > 1 { // and the fragments out of order
			seeds = append(seeds, lines[1]+"\n"+lines[0])
		}
	}
	return seeds
}
