package events

import (
	"fmt"
	"time"

	"repro/internal/model"
)

// Step is one stage of a sequence pattern: a predicate that must hold,
// sustained for at least MinDuration (0 = a single matching sample
// suffices).
type Step struct {
	Name        string
	Match       func(s model.VesselState, ctx *Context) bool
	MinDuration time.Duration
}

// Pattern is a CEP sequence: steps must be satisfied in order, with the
// whole sequence completing within Window (0 = unbounded). Non-matching
// samples between steps are tolerated (skip-till-next-match semantics),
// but a sample matching ResetOn aborts the partial match.
type Pattern struct {
	Name    string
	Steps   []Step
	Window  time.Duration
	ResetOn func(s model.VesselState, ctx *Context) bool
	// Severity of the emitted alert.
	Severity int
}

// PatternEngine runs sequence patterns over per-vessel state streams.
type PatternEngine struct {
	Ctx      *Context
	patterns []*Pattern
	state    map[patternKey]*patternProgress
}

type patternKey struct {
	pattern string
	mmsi    uint32
}

type patternProgress struct {
	step      int
	stepSince time.Time
	stepOpen  bool
	startedAt time.Time
}

// NewPatternEngine returns an engine with the given context.
func NewPatternEngine(ctx *Context) *PatternEngine {
	return &PatternEngine{Ctx: ctx, state: make(map[patternKey]*patternProgress)}
}

// Register adds a pattern.
func (pe *PatternEngine) Register(p *Pattern) { pe.patterns = append(pe.patterns, p) }

// Process consumes a state sample and returns alerts for any patterns the
// sample completes.
func (pe *PatternEngine) Process(s model.VesselState) []Alert {
	var out []Alert
	for _, p := range pe.patterns {
		if a, ok := pe.step(p, s); ok {
			out = append(out, a)
		}
	}
	return out
}

func (pe *PatternEngine) step(p *Pattern, s model.VesselState) (Alert, bool) {
	key := patternKey{pattern: p.Name, mmsi: s.MMSI}
	prog, ok := pe.state[key]
	if !ok {
		prog = &patternProgress{}
		pe.state[key] = prog
	}
	if p.ResetOn != nil && p.ResetOn(s, pe.Ctx) {
		*prog = patternProgress{}
		return Alert{}, false
	}
	// Window expiry aborts a partial match.
	if prog.step > 0 && p.Window > 0 && s.At.Sub(prog.startedAt) > p.Window {
		*prog = patternProgress{}
	}
	if prog.step >= len(p.Steps) {
		*prog = patternProgress{}
	}
	st := p.Steps[prog.step]
	if !st.Match(s, pe.Ctx) {
		// Skip-till-next-match: an open dwell requirement is interrupted.
		prog.stepOpen = false
		return Alert{}, false
	}
	if !prog.stepOpen {
		prog.stepOpen = true
		prog.stepSince = s.At
		if prog.step == 0 {
			prog.startedAt = s.At
		}
	}
	if s.At.Sub(prog.stepSince) < st.MinDuration {
		return Alert{}, false
	}
	// Step satisfied: advance.
	prog.step++
	prog.stepOpen = false
	if prog.step < len(p.Steps) {
		return Alert{}, false
	}
	started := prog.startedAt
	*prog = patternProgress{}
	return Alert{
		Kind: Kind("pattern:" + p.Name), MMSI: s.MMSI,
		At: s.At, Start: started, Where: s.Pos,
		Severity: max(1, p.Severity),
		Note:     fmt.Sprintf("sequence %q completed", p.Name),
	}, true
}

// --- canonical maritime patterns ---------------------------------------------------

// SmugglingRunPattern encodes the §3.1 motivating composite: transit →
// stop at sea (possible transfer) → transit resumes, all within the
// window and away from ports.
func SmugglingRunPattern(window time.Duration) *Pattern {
	transit := func(s model.VesselState, _ *Context) bool { return s.SpeedKn > 6 }
	stopAtSea := func(s model.VesselState, ctx *Context) bool {
		return s.SpeedKn < 1.5 && !ctx.InPort(s.Pos)
	}
	return &Pattern{
		Name:     "stop-and-go-at-sea",
		Window:   window,
		Severity: 3,
		Steps: []Step{
			{Name: "transit", Match: transit},
			{Name: "stop-at-sea", Match: stopAtSea, MinDuration: 10 * time.Minute},
			{Name: "resume", Match: transit},
		},
		ResetOn: func(s model.VesselState, ctx *Context) bool { return ctx.InPort(s.Pos) },
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
