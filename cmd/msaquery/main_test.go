package main

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
)

var (
	mmsi = uint32(201000091)
	box  = func(minLat, minLon, maxLat, maxLon float64) *query.Box {
		return &query.Box{MinLat: minLat, MinLon: minLon, MaxLat: maxLat, MaxLon: maxLon}
	}
)

// invocations maps each msaquery command line README.md and the
// package doc spell (program name and trailing comment cut) to the
// request it must build.
var invocations = map[string]query.Request{
	"-data ./arch spacetime box=42,4,44,9":                  {Kind: query.KindSpaceTime, Box: box(42, 4, 44, 9)},
	"-data ./arch -remote ./objects stats":                  {Kind: query.KindStats},
	"-http localhost:8080 stats":                            {Kind: query.KindStats},
	"-http localhost:8080 alerts severity=3 limit=20":       {Kind: query.KindAlertHistory, MinSeverity: 3, Limit: 20},
	"-http localhost:8080 spacetime box=42,4,44,9":          {Kind: query.KindSpaceTime, Box: box(42, 4, 44, 9)},
	"-http localhost:8080 nearest point=43.2,5.3 k=5":       {Kind: query.KindNearest, Lat: 43.2, Lon: 5.3, K: 5},
	"-http localhost:8080 -watch spacetime box=42,4,44,9":   {Kind: query.KindSpaceTime, Box: box(42, 4, 44, 9)},
	"-http localhost:8080 -watch trajectory mmsi=201000091": {Kind: query.KindTrajectory, MMSI: mmsi},
	"-http localhost:8080 spacetime box=30,-10,46,37":       {Kind: query.KindSpaceTime, Box: box(30, -10, 46, 37)},
	"-http localhost:8080 track mmsi=201000091":             {Kind: query.KindTrack, MMSI: mmsi},
	"-http localhost:8080 predict mmsi=201000091 horizon=20m": {
		Kind: query.KindPredict, MMSI: mmsi, Horizon: query.Duration(20 * time.Minute)},
	"-http localhost:8080 quality mmsi=201000091": {Kind: query.KindQuality, MMSI: mmsi},
	"-http localhost:8080 -watch predict mmsi=201000091 horizon=10m": {
		Kind: query.KindPredict, MMSI: mmsi, Horizon: query.Duration(10 * time.Minute)},
	"-http localhost:8080 anomalies limit=10":              {Kind: query.KindAnomalies, Limit: 10},
	"-http localhost:8080 anomalies mmsi=201000091":        {Kind: query.KindAnomalies, MMSI: mmsi},
	"-http localhost:8080 -watch anomalies":                {Kind: query.KindAnomalies},
	"-http localhost:8080 spacetime box=42,4,44,9 trace=1": {Kind: query.KindSpaceTime, Box: box(42, 4, 44, 9), Trace: true},
	"-http localhost:8080 track mmsi=201000007 trace=1":    {Kind: query.KindTrack, MMSI: 201000007, Trace: true},
	"-write archive.bin -vessels 100 -minutes 120":         {},
	"-read archive.bin trajectory mmsi=201000091":          {Kind: query.KindTrajectory, MMSI: mmsi},
	"-read archive.bin spacetime box=42,4,44,9":            {Kind: query.KindSpaceTime, Box: box(42, 4, 44, 9)},
	"-data /var/lib/maritimed nearest point=43.2,5.3 k=5":  {Kind: query.KindNearest, Lat: 43.2, Lon: 5.3, K: 5},
	"-http localhost:8080 live box=42,4,44,9":              {Kind: query.KindLivePicture, Box: box(42, 4, 44, 9)},
	"-http localhost:8080 situation box=42,4,44,9":         {Kind: query.KindSituation, Box: box(42, 4, 44, 9)},
	"-data /var/lib/maritimed -json stats":                 {Kind: query.KindStats},
	"-http localhost:8080 predict mmsi=201000091 horizon=15m": {
		Kind: query.KindPredict, MMSI: mmsi, Horizon: query.Duration(15 * time.Minute)},
	"-http localhost:8080 -watch -count 100 -json spacetime box=42,4,44,9": {Kind: query.KindSpaceTime, Box: box(42, 4, 44, 9)},
}

func TestInvocationsBuildTheirRequest(t *testing.T) {
	for line, want := range invocations {
		o, err := parseArgs(strings.Fields(line))
		if err != nil {
			t.Errorf("msaquery %s: %v", line, err)
			continue
		}
		if !reflect.DeepEqual(o.req, want) {
			t.Errorf("msaquery %s:\n got  %+v\n want %+v", line, o.req, want)
		}
	}
}

// TestEveryKindHasAnInvocation fails when a kind is added without an
// example command line: the docs show how to ask every kind.
func TestEveryKindHasAnInvocation(t *testing.T) {
	covered := map[query.Kind]bool{}
	for _, req := range invocations {
		covered[req.Kind] = true
	}
	for _, k := range query.Kinds() {
		if !covered[k] {
			t.Errorf("kind %s has no msaquery invocation in README.md or the package doc", k)
		}
	}
}

// TestDocumentedInvocationsAreTested keeps invocations equal to the
// command lines README.md and the package doc actually show.
func TestDocumentedInvocationsAreTested(t *testing.T) {
	invocation := regexp.MustCompile(`^(?:\$ |//\t)?msaquery\s+([^\[#]*?)\s*(?:#.*)?$`)
	seen := map[string]bool{}
	for _, path := range []string{"../../README.md", "main.go"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			m := invocation.FindStringSubmatch(line)
			if m == nil || strings.Contains(line, "[") {
				continue // prose, or the synopsis
			}
			args := strings.Join(strings.Fields(m[1]), " ")
			seen[args] = true
			if _, ok := invocations[args]; !ok {
				t.Errorf("%s: msaquery %s has no row in invocations", path, args)
			}
		}
	}
	for args := range invocations {
		if !seen[args] {
			t.Errorf("invocations row %q is in neither README.md nor the package doc", args)
		}
	}
}

func TestRejectedCommandLines(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{"-http h track mmsi=201000091 -json", "flags go before KIND"},
		{"-http h track 201000091", "not name=value"},
		{"-http h", "missing KIND"},
		{"-http h vessel mmsi=201000091", "unknown kind"},
		{"-http h track box=42,4,44,9", `no parameter "box"`},
		{"-http h track mmsi=1 mmsi=2", "given 2 times"},
		{"-http h predict mmsi=201000091", "positive horizon"},
		{"-http h spacetime box=44,4,42,9", "minLat"},
	} {
		_, err := parseArgs(strings.Fields(c.line))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("msaquery %s: error %v, want one mentioning %q", c.line, err, c.want)
		}
	}
}
