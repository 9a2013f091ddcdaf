package serve

import (
	"fmt"
	"time"

	"repro/internal/monitor"
)

// ShedLevel is the front door's load-shedding posture, derived from the
// engine's degradation ladder (PR 2): the server starts refusing
// lower-priority lanes while the engine still has headroom, so shedding
// happens at admission — before queue pressure forces the engine itself to
// demote a stage.
type ShedLevel int

// Shed levels, mildest to harshest.
const (
	// ShedNone admits every lane (every stage at LadderFull).
	ShedNone ShedLevel = iota
	// ShedLow refuses the Low lane (weakest stage at LadderQuorum).
	ShedLow
	// ShedToHigh refuses Low and Normal (weakest stage at LadderSingle).
	ShedToHigh
	// ShedAll refuses everything (a stage is LadderHalted).
	ShedAll
)

func (l ShedLevel) String() string {
	switch l {
	case ShedNone:
		return "none"
	case ShedLow:
		return "shed-low"
	case ShedToHigh:
		return "shed-to-high"
	case ShedAll:
		return "shed-all"
	default:
		return fmt.Sprintf("ShedLevel(%d)", int(l))
	}
}

// sheds reports whether a request on lane p is refused at this level.
func (l ShedLevel) sheds(p Priority) bool {
	switch l {
	case ShedNone:
		return false
	case ShedLow:
		return p >= Low
	case ShedToHigh:
		return p >= Normal
	default:
		return true
	}
}

// shedLevelFor maps the weakest stage's rung to a shedding posture.
func shedLevelFor(ladder []monitor.LadderRung) ShedLevel {
	worst := monitor.LadderFull
	for _, r := range ladder {
		if r < worst {
			worst = r
		}
	}
	switch worst {
	case monitor.LadderFull:
		return ShedNone
	case monitor.LadderQuorum:
		return ShedLow
	case monitor.LadderSingle:
		return ShedToHigh
	default:
		return ShedAll
	}
}

// shedWatcher polls the ladder and publishes the level admission reads.
func (s *Server) shedWatcher() {
	tick := time.NewTicker(shedInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSig:
			return
		case <-tick.C:
			lvl := shedLevelFor(s.engine.Ladder())
			if s.shed.Swap(int32(lvl)) != int32(lvl) {
				s.met.shedLevel.Set(int64(lvl))
			}
		}
	}
}
