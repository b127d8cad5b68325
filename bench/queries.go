package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
)

// variant is one shape of request the bench issues: the eleven query
// kinds, with `anomalies` split into its per-vessel and ranked forms.
type variant int

const (
	vTrajectory variant = iota
	vTrack
	vPredict
	vQuality
	vAnomalies
	vNearest
	vSpaceTime
	vLive
	vSituation
	vAnomaliesRanked
	vStats
	vAlerts
	numVariants
)

var variantNames = [numVariants]string{
	"trajectory", "track", "predict", "quality", "anomalies", "nearest",
	"spacetime", "live", "situation", "anomalies_ranked", "stats", "alerts",
}

func (v variant) String() string { return variantNames[v] }

// span is the name of the client span around one request of the variant.
func (v variant) span() string { return "query." + variantNames[v] }

// kind is the daemon's name for the variant (its query_latency_ns label).
func (v variant) kind() query.Kind {
	if v == vAnomaliesRanked {
		return query.KindAnomalies
	}
	return query.Kind(variantNames[v])
}

// The two latency classes of the end-to-end metrics: point variants read
// one vessel (or the k vessels nearest one place and instant); scan
// variants read a region or the whole fleet.
var (
	pointVariants = []variant{vTrajectory, vTrack, vPredict, vQuality, vAnomalies, vNearest}
	scanVariants  = []variant{vSpaceTime, vLive, vSituation, vAnomaliesRanked, vStats, vAlerts}
)

// boxAround is a side×side degree box centred on p.
func boxAround(p geo.Point, side float64) *query.Box {
	b := query.BoxOf(geo.Rect{
		MinLat: p.Lat - side/2, MinLon: p.Lon - side/2,
		MaxLat: p.Lat + side/2, MaxLon: p.Lon + side/2,
	})
	return &b
}

// mixer draws seeded requests over one feed's vessels, places and times.
type mixer struct {
	rng  *rand.Rand
	feed *feed
}

func newMixer(seed int64, f *feed) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed)), feed: f}
}

// archive draws one request of variant v against the archive the feed
// leaves behind: vessels uniform, boxes and instants on sampled reports.
func (m *mixer) archive(v variant) query.Request {
	f := m.feed
	mmsi := f.vessels[m.rng.Intn(len(f.vessels))]
	a := f.anchors[m.rng.Intn(len(f.anchors))]
	at := atOf(a.line)
	switch v {
	case vTrajectory:
		from := atOf(m.rng.Intn(f.lines()))
		return query.Request{Kind: query.KindTrajectory, MMSI: mmsi, From: from, To: from.Add(time.Hour)}
	case vTrack:
		return query.Request{Kind: query.KindTrack, MMSI: mmsi}
	case vPredict:
		return query.Request{Kind: query.KindPredict, MMSI: mmsi, Horizon: query.Duration(15 * time.Minute)}
	case vQuality:
		return query.Request{Kind: query.KindQuality, MMSI: mmsi}
	case vAnomalies:
		return query.Request{Kind: query.KindAnomalies, MMSI: mmsi}
	case vNearest:
		return query.Request{Kind: query.KindNearest, Lat: a.pos.Lat, Lon: a.pos.Lon, At: at, K: 5}
	case vSpaceTime:
		return query.Request{Kind: query.KindSpaceTime, Box: boxAround(a.pos, 0.5),
			From: at.Add(-time.Hour), To: at.Add(time.Hour), Limit: 5000}
	case vLive:
		return query.Request{Kind: query.KindLivePicture, Box: boxAround(a.pos, 2)}
	case vSituation:
		return query.Request{Kind: query.KindSituation, Box: boxAround(a.pos, 2), MinSeverity: 3}
	case vAnomaliesRanked:
		return query.Request{Kind: query.KindAnomalies}
	case vStats:
		return query.Request{Kind: query.KindStats}
	default: // vAlerts
		return query.Request{Kind: query.KindAlertHistory, From: at.Add(-time.Hour), To: at, MinSeverity: 3, Limit: 200}
	}
}

// archiveMix draws the j-th request of one client of the query workloads'
// mix: 7 of every 10 are point reads, 3 are scans, and within a class the
// variants take turns, so every run issues the same share of each variant
// and only vessels, places and instants are drawn.
func (m *mixer) archiveMix(j int) (variant, query.Request) {
	round, slot := j/10, j%10
	v := pointVariants[(round*7+slot-slot/3)%len(pointVariants)]
	if slot%3 == 2 { // slots 2, 5, 8
		v = scanVariants[(round*3+slot/3)%len(scanVariants)]
	}
	return v, m.archive(v)
}

// watchRegion is the region the watch floor's screen shows: the whole
// simulated sea, so that what a read gathers is the fleet, whose size the
// seed does not change, and not the part of it a seed happens to sail
// through some smaller box.
var watchRegion = query.Box{MinLat: 30, MinLon: -6, MaxLat: 46, MaxLon: 36}

const watchPage = 100

// watchFloor draws the ingest workloads' background mix, the reads of an
// operator's screen while the feed runs. Four of every five refresh the
// watched region's live picture, a page of watchPage vessels (so the
// median scan read sits well inside that one kind's latencies, not in its
// tail); the fifth takes turns through its
// situation board, the vessels nearest a sampled place now, the last
// hour's alerts and the store statistics. now is the event time of the
// newest line written, j the request's place in the schedule. All of them
// are scan-class.
func (m *mixer) watchFloor(j int, now time.Time) (variant, query.Request) {
	if j%5 != 4 {
		return vLive, query.Request{Kind: query.KindLivePicture, Box: &watchRegion, Limit: watchPage}
	}
	switch j / 5 % 4 {
	case 0:
		return vSituation, query.Request{Kind: query.KindSituation, Box: &watchRegion, MinSeverity: 3}
	case 1:
		a := m.feed.anchors[m.rng.Intn(len(m.feed.anchors))]
		return vNearest, query.Request{Kind: query.KindNearest, Lat: a.pos.Lat, Lon: a.pos.Lon, At: now, K: 5}
	case 2:
		return vAlerts, query.Request{Kind: query.KindAlertHistory, From: now.Add(-time.Hour), To: now, MinSeverity: 3, Limit: 200}
	default:
		return vStats, query.Request{Kind: query.KindStats}
	}
}

// encode is the request's wire form for POST /v1/query.
func encode(req query.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // Request is plain data; it always marshals
	}
	return b
}
