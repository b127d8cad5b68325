package events

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/zones"
)

// --- dark periods ---------------------------------------------------------------

// DarkDetector flags reporting gaps longer than Threshold. The alert is
// raised when the vessel reappears (streaming semantics); its Start/At
// span the silent interval. Expected cadence differences (moored vessels
// report every 3 min) are absorbed by the threshold choice.
type DarkDetector struct {
	Threshold time.Duration
}

// Name implements VesselDetector.
func (d *DarkDetector) Name() string { return "dark" }

// Process implements VesselDetector.
func (d *DarkDetector) Process(s model.VesselState, r *Record, _ *Context) []Alert {
	if d.Threshold == 0 {
		d.Threshold = 10 * time.Minute
	}
	if !r.seen {
		return nil
	}
	gap := s.At.Sub(r.last.At)
	if gap <= d.Threshold {
		return nil
	}
	return []Alert{{
		Kind: KindDark, MMSI: s.MMSI, At: s.At, Start: r.last.At,
		Where: r.last.Pos, Severity: 2,
		Note: fmt.Sprintf("silent for %s", gap.Round(time.Second)),
	}}
}

// --- teleport / position spoofing --------------------------------------------------

// TeleportDetector flags position jumps implying speeds beyond MaxSpeedKn:
// the kinematic signature of GPS/position spoofing (§1, [36][43]).
type TeleportDetector struct {
	MaxSpeedKn float64
}

// Name implements VesselDetector.
func (d *TeleportDetector) Name() string { return "teleport" }

// Process implements VesselDetector.
func (d *TeleportDetector) Process(s model.VesselState, r *Record, _ *Context) []Alert {
	if d.MaxSpeedKn == 0 {
		d.MaxSpeedKn = 60
	}
	if !r.seen {
		return nil
	}
	prev := r.last.Pos
	dt := s.At.Sub(r.last.At).Seconds()
	if dt <= 0 {
		return nil
	}
	// Gate: along the meridian, then along the parallel, is a path between
	// the two fixes, so R·(|Δφ|+|Δλ|) bounds the haversine from above. When
	// even that implies at most 0.99 × MaxSpeedKn the exact speed cannot
	// pass MaxSpeedKn, and a quiet Teleport changes no state. Off the
	// sphere (|lat| > 90) the exact path decides.
	if math.Abs(prev.Lat) <= 90 && math.Abs(s.Pos.Lat) <= 90 &&
		geo.EarthRadius*geo.Radians(math.Abs(s.Pos.Lat-prev.Lat)+math.Abs(s.Pos.Lon-prev.Lon)) <=
			(1-gateMargin)*d.MaxSpeedKn*geo.Knot*dt {
		return nil
	}
	impliedKn := geo.Distance(prev, s.Pos) / dt / geo.Knot
	if impliedKn <= d.MaxSpeedKn {
		return nil
	}
	return []Alert{{
		Kind: KindTeleport, MMSI: s.MMSI, At: s.At, Start: r.last.At,
		Where: s.Pos, Severity: 3,
		Note: fmt.Sprintf("implied speed %.0f kn", impliedKn),
	}}
}

// --- identity anomalies ---------------------------------------------------------------

// IdentityDetector flags structurally invalid MMSIs — the cheap but
// effective half of identity-spoofing detection (the simulator's fake
// identities use the unallocated 9xx MID space, as real spoofers often do).
type IdentityDetector struct{}

// Name implements VesselDetector.
func (IdentityDetector) Name() string { return "identity" }

// Process implements VesselDetector.
func (IdentityDetector) Process(s model.VesselState, _ *Record, _ *Context) []Alert {
	if s.MMSI >= 200000000 && s.MMSI <= 799999999 {
		return nil
	}
	return []Alert{{
		Kind: KindIdentity, MMSI: s.MMSI, At: s.At, Start: s.At, Where: s.Pos,
		Severity: 3, Note: fmt.Sprintf("implausible MMSI %d", s.MMSI),
	}}
}

// --- loitering -------------------------------------------------------------------------

// LoiterDetector flags vessels that stay within RadiusM for at least
// MinDuration while away from ports — the paper's "suspicious of dangerous
// activities" staple. One anchor state per vessel; the anchor slides when
// the vessel leaves the radius.
type LoiterDetector struct {
	RadiusM     float64
	MinDuration time.Duration
	MaxSpeedKn  float64
}

// Name implements VesselDetector.
func (d *LoiterDetector) Name() string { return "loiter" }

// Process implements VesselDetector.
func (d *LoiterDetector) Process(s model.VesselState, r *Record, ctx *Context) []Alert {
	if d.RadiusM == 0 {
		d.RadiusM = 2000
	}
	if d.MinDuration == 0 {
		d.MinDuration = 25 * time.Minute
	}
	if d.MaxSpeedKn == 0 {
		d.MaxSpeedKn = 3.5
	}
	// Cheapest test first: a fast vessel has moved whatever the haversine
	// says, and a vessel that moved re-anchors whatever the port zones say.
	moved := !r.anchored || s.SpeedKn > d.MaxSpeedKn || geo.Distance(r.anchor.Pos, s.Pos) > d.RadiusM
	if moved || ctx.InPort(s.Pos) {
		r.anchor, r.anchored, r.loitered = s, true, false
		return nil
	}
	if r.loitered {
		return nil
	}
	dwell := s.At.Sub(r.anchor.At)
	if dwell < d.MinDuration {
		return nil
	}
	r.loitered = true
	return []Alert{{
		Kind: KindLoiter, MMSI: s.MMSI, At: s.At, Start: r.anchor.At,
		Where: r.anchor.Pos, Severity: 2,
		Note: fmt.Sprintf("holding within %.0f m for %s", d.RadiusM, dwell.Round(time.Minute)),
	}}
}

// --- drifting ----------------------------------------------------------------------------

// DriftDetector flags not-under-command drift: sustained 0.3–2.5 kn with
// wandering course away from ports — the engine-failure signature. It
// needs NumSamples consecutive drifting samples to fire.
type DriftDetector struct {
	NumSamples int
}

type driftState struct {
	count      int
	firstAt    time.Time
	lastCourse float64
	courseVar  float64
	alerted    bool
}

// Name implements VesselDetector.
func (d *DriftDetector) Name() string { return "drift" }

// Process implements VesselDetector.
func (d *DriftDetector) Process(s model.VesselState, r *Record, ctx *Context) []Alert {
	if d.NumSamples == 0 {
		d.NumSamples = 20
	}
	st := &r.drift
	drifting := s.SpeedKn >= 0.3 && s.SpeedKn <= 2.5 && !ctx.InPort(s.Pos)
	if s.Status == ais.StatusNotUnderCmd {
		drifting = true
	}
	if !drifting {
		st.count = 0
		st.courseVar = 0
		st.alerted = false
		return nil
	}
	if st.count == 0 {
		st.firstAt = s.At
		st.lastCourse = s.CourseDeg
	} else {
		diff := math.Abs(geo.NormalizeBearing(s.CourseDeg - st.lastCourse))
		if diff > 180 {
			diff = 360 - diff
		}
		st.courseVar += diff
		st.lastCourse = s.CourseDeg
	}
	st.count++
	if st.alerted || st.count < d.NumSamples {
		return nil
	}
	// Require either explicit NUC status or visible course wander.
	if s.Status != ais.StatusNotUnderCmd && st.courseVar/float64(st.count) < 1.5 {
		return nil
	}
	st.alerted = true
	return []Alert{{
		Kind: KindDrift, MMSI: s.MMSI, At: s.At, Start: st.firstAt,
		Where: s.Pos, Severity: 3,
		Note: fmt.Sprintf("adrift since %s", st.firstAt.Format("15:04")),
	}}
}

// --- speed anomaly ---------------------------------------------------------------------------

// SpeedAnomalyDetector flags reported speeds that are impossible for the
// vessel or inconsistent sentinel abuse.
type SpeedAnomalyDetector struct {
	MaxKn float64
}

// Name implements VesselDetector.
func (d *SpeedAnomalyDetector) Name() string { return "speed" }

// Process implements VesselDetector.
func (d *SpeedAnomalyDetector) Process(s model.VesselState, _ *Record, _ *Context) []Alert {
	max := d.MaxKn
	if max == 0 {
		max = 50
	}
	if s.SpeedKn <= max || s.SpeedKn >= 102.3 {
		return nil
	}
	return []Alert{{
		Kind: KindSpeedAnomaly, MMSI: s.MMSI, At: s.At, Start: s.At, Where: s.Pos,
		Severity: 1, Note: fmt.Sprintf("reported %.1f kn", s.SpeedKn),
	}}
}

// --- protected-area fishing --------------------------------------------------------------------

// ZoneViolationDetector flags fishing-like behaviour (slow speed or
// explicit fishing status) sustained inside protected areas.
type ZoneViolationDetector struct {
	MinSamples int
}

// Name implements VesselDetector.
func (d *ZoneViolationDetector) Name() string { return "zone-violation" }

// Process implements VesselDetector.
func (d *ZoneViolationDetector) Process(s model.VesselState, r *Record, ctx *Context) []Alert {
	if d.MinSamples == 0 {
		d.MinSamples = 10
	}
	if ctx == nil || ctx.Zones == nil {
		return nil
	}
	fishingLike := s.Status == ais.StatusFishing || (s.SpeedKn > 0.5 && s.SpeedKn < 6)
	if !fishingLike || !ctx.Zones.InAny(s.Pos, zones.KindProtectedArea) {
		r.zoneCount, r.zoneAlerted = 0, false
		return nil
	}
	r.zoneCount++
	if r.zoneAlerted || r.zoneCount < d.MinSamples {
		return nil
	}
	r.zoneAlerted = true
	return []Alert{{
		Kind: KindZoneViolation, MMSI: s.MMSI, At: s.At, Start: s.At, Where: s.Pos,
		Severity: 3, Note: "fishing-like behaviour inside protected area",
	}}
}

// --- rendezvous (pairwise) ------------------------------------------------------------------------

// RendezvousDetector flags pairs of vessels holding within ProximityM of
// each other at near-zero speed for MinDuration, away from ports: the
// ship-to-ship transfer signature.
type RendezvousDetector struct {
	ProximityM  float64
	MaxSpeedKn  float64
	MinDuration time.Duration

	pairs map[uint64]*pairState
}

type pairState struct {
	since   time.Time
	where   geo.Point
	alerted bool
}

// Name implements PairDetector.
func (d *RendezvousDetector) Name() string { return "rendezvous" }

func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// gateMargin widens every gate threshold. What a gate computes is off
// from the exact math by rounding and by a few parts in 10^5 (see offset);
// the margin is a thousand times that.
const gateMargin = 0.01

// offset places b relative to a in metres east and north on a plane whose
// east axis is scaled by the smaller of the two cos(lat), which makes the
// planar range a lower bound on both the great-circle range and the range
// on CPA's tangent plane (2 parts in 10^5 short at worst). exErr is how far
// east may be from that tangent plane's: its cos(lat), taken at the
// great-circle midpoint, lies between the two vessels' to within 1e-4. ok
// is false past half a degree on either axis, where none of this holds and
// no gate may fire.
func offset(a, b *Contact) (east, north, exErr float64, ok bool) {
	const m = math.Pi / 180 * geo.EarthRadius
	lon, lat := b.Pos.Lon-a.Pos.Lon, b.Pos.Lat-a.Pos.Lat
	if !(math.Abs(lon) <= 0.5 && math.Abs(lat) <= 0.5) {
		return 0, 0, 0, false
	}
	lon *= m
	return lon * math.Min(a.cosLat, b.cosLat), lat * m,
		math.Abs(lon) * (math.Abs(a.cosLat-b.cosLat) + 1e-4), true
}

// beyond reports whether a and b are provably more than reach metres apart.
func beyond(a, b *Contact, reach float64) bool {
	dx, dy, _, ok := offset(a, b)
	reach *= 1 + gateMargin
	return ok && dx*dx+dy*dy > reach*reach
}

// ProcessPair implements PairDetector.
func (d *RendezvousDetector) ProcessPair(a, b *Contact, ctx *Context) []Alert {
	if d.ProximityM == 0 {
		d.ProximityM = 1000
	}
	if d.MaxSpeedKn == 0 {
		d.MaxSpeedKn = 2.5
	}
	if d.MinDuration == 0 {
		d.MinDuration = 10 * time.Minute
	}
	if d.pairs == nil {
		d.pairs = make(map[uint64]*pairState)
	}
	key := pairKey(a.MMSI, b.MMSI)
	// Gate: a pair with a fast vessel or provably out of reach is not close
	// whatever the haversine and the port zones say, and all a not-close
	// call does is forget the pair.
	if a.SpeedKn > d.MaxSpeedKn || b.SpeedKn > d.MaxSpeedKn || beyond(a, b, d.ProximityM) {
		delete(d.pairs, key)
		return nil
	}
	isClose := geo.Distance(a.Pos, b.Pos) <= d.ProximityM &&
		a.SpeedKn <= d.MaxSpeedKn && b.SpeedKn <= d.MaxSpeedKn &&
		!ctx.InPort(a.Pos) && !ctx.InPort(b.Pos)
	now := a.At
	if b.At.After(now) {
		now = b.At
	}
	st, ok := d.pairs[key]
	if !isClose {
		if ok {
			delete(d.pairs, key)
		}
		return nil
	}
	if !ok {
		d.pairs[key] = &pairState{since: now, where: geo.Midpoint(a.Pos, b.Pos)}
		return nil
	}
	st.where = geo.Midpoint(a.Pos, b.Pos)
	if st.alerted || now.Sub(st.since) < d.MinDuration {
		return nil
	}
	st.alerted = true
	return []Alert{{
		Kind: KindRendezvous, MMSI: a.MMSI, Other: b.MMSI, At: now, Start: st.since,
		Where: st.where, Severity: 3,
		Note: fmt.Sprintf("stationary together for %s", now.Sub(st.since).Round(time.Minute)),
	}}
}

// --- collision risk (pairwise) ----------------------------------------------------------------------

// CollisionRiskDetector computes the closest point of approach between
// co-located moving vessels and alerts when CPA < CPAThresholdM within
// TCPAHorizon. Alerts are rate-limited per pair.
type CollisionRiskDetector struct {
	CPAThresholdM float64
	TCPAHorizon   time.Duration
	MinSpeedKn    float64
	Cooldown      time.Duration

	lastAlert map[uint64]time.Time
	pruneAt   int // len(lastAlert) at which entries past the cooldown are dropped
}

// Name implements PairDetector.
func (d *CollisionRiskDetector) Name() string { return "collision-risk" }

// ProcessPair implements PairDetector.
func (d *CollisionRiskDetector) ProcessPair(a, b *Contact, _ *Context) []Alert {
	if d.CPAThresholdM == 0 {
		d.CPAThresholdM = 500
	}
	if d.TCPAHorizon == 0 {
		d.TCPAHorizon = 15 * time.Minute
	}
	if d.MinSpeedKn == 0 {
		d.MinSpeedKn = 4
	}
	if d.Cooldown == 0 {
		d.Cooldown = 10 * time.Minute
	}
	if d.lastAlert == nil {
		d.lastAlert = make(map[uint64]time.Time)
	}
	if a.SpeedKn < d.MinSpeedKn || b.SpeedKn < d.MinSpeedKn {
		return nil
	}
	key := pairKey(a.MMSI, b.MMSI)
	now := a.At
	if b.At.After(now) {
		now = b.At
	}
	horizon := d.TCPAHorizon.Seconds()
	dvx, dvy := b.ve-a.ve, b.vn-a.vn
	if dx, dy, exErr, ok := offset(a, b); ok {
		// Gate: CPA and TCPA on the offset plane. Both are linear in the
		// east offset, so the exact ones are within exErr metres and
		// exErr/|dv| seconds of these.
		dv := math.Sqrt(dvx*dvx + dvy*dvy)
		miss := math.Abs(dx*dvy-dy*dvx) / dv
		t := -(dx*dvx + dy*dvy) / (dv * dv)
		if miss-exErr > d.CPAThresholdM*(1+gateMargin) ||
			t+exErr/dv < -horizon*gateMargin || t-exErr/dv > horizon*(1+gateMargin) {
			return nil
		}
	}
	// Inside the cooldown the pair stays quiet whatever its CPA is.
	if last, ok := d.lastAlert[key]; ok && now.Sub(last) < d.Cooldown {
		return nil
	}
	cpa, tcpa := cpaOf(a, b)
	if cpa > d.CPAThresholdM || tcpa <= 0 || tcpa > horizon {
		return nil
	}
	d.lastAlert[key] = now
	// An entry past its cooldown decides nothing. Dropping those each time
	// the map has doubled keeps it the size of the pairs still cooling down.
	if len(d.lastAlert) >= d.pruneAt {
		for k, last := range d.lastAlert {
			if now.Sub(last) >= d.Cooldown {
				delete(d.lastAlert, k)
			}
		}
		d.pruneAt = 2*len(d.lastAlert) + 16
	}
	return []Alert{{
		Kind: KindCollisionRisk, MMSI: a.MMSI, Other: b.MMSI, At: now, Start: now,
		Where: geo.Midpoint(a.Pos, b.Pos), Severity: 3,
		Note: fmt.Sprintf("CPA %.0f m in %.0f s", cpa, tcpa),
	}}
}

func cpaOf(a, b *Contact) (cpaM, tcpaSec float64) {
	plane := geo.NewLocalPlane(geo.Midpoint(a.Pos, b.Pos))
	ax, ay := plane.Forward(a.Pos)
	bx, by := plane.Forward(b.Pos)
	dx, dy := bx-ax, by-ay
	dvx, dvy := b.ve-a.ve, b.vn-a.vn
	dv2 := dvx*dvx + dvy*dvy
	if dv2 < 1e-9 {
		return math.Hypot(dx, dy), 0
	}
	tcpa := -(dx*dvx + dy*dvy) / dv2
	cx := dx + dvx*tcpa
	cy := dy + dvy*tcpa
	return math.Hypot(cx, cy), tcpa
}

// DefaultDetectors returns the standard per-vessel detector battery wired
// with maritime defaults.
func DefaultDetectors() []VesselDetector {
	return []VesselDetector{
		&DarkDetector{Threshold: 10 * time.Minute},
		&TeleportDetector{MaxSpeedKn: 60},
		IdentityDetector{},
		&LoiterDetector{},
		&DriftDetector{},
		&SpeedAnomalyDetector{},
		&ZoneViolationDetector{},
	}
}

// DefaultPairDetectors returns the standard pairwise battery.
func DefaultPairDetectors() []PairDetector {
	return []PairDetector{
		&RendezvousDetector{},
		&CollisionRiskDetector{},
	}
}
