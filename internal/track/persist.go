package track

import (
	"encoding/json"
	"fmt"

	"repro/internal/fusion"
)

// Orphan persistence: identified vessel tracks rebuild from the archive
// on restart (Engine.Resume seeds every recovered trajectory into the
// lane), but anonymous radar-only tracks exist nowhere else — without a snapshot they die
// with the process. SnapshotOrphans/RestoreOrphans capture exactly that
// state, one fusion.TrackerSnapshot per shard, so a daemon can park the
// picture at shutdown and resume it at startup (maritimed keeps it next
// to the WAL in -data-dir). JSON round-trips float64 exactly, so a
// restored filter continues bit-for-bit where the old process stopped.

// SnapshotOrphans captures every shard's anonymous-track picture,
// indexed by shard.
func (ss Stages) SnapshotOrphans() []fusion.TrackerSnapshot {
	out := make([]fusion.TrackerSnapshot, len(ss.stages))
	for i, st := range ss.stages {
		st.omu.Lock()
		out[i] = st.orphans.Snapshot()
		st.omu.Unlock()
	}
	return out
}

// RestoreOrphans resumes a snapshot taken by SnapshotOrphans. The stage
// set must be freshly built with the same shard count (orphans are
// homed per shard; a resharded daemon starts its anonymous picture
// empty rather than mishoming old tracks).
func (ss Stages) RestoreOrphans(snaps []fusion.TrackerSnapshot) error {
	if len(snaps) != len(ss.stages) {
		return fmt.Errorf("track: orphan snapshot has %d shards, stage set has %d", len(snaps), len(ss.stages))
	}
	for i, st := range ss.stages {
		st.omu.Lock()
		err := st.orphans.Restore(snaps[i])
		st.omu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// EncodeOrphans renders the orphan snapshot as JSON for persistence.
func (ss Stages) EncodeOrphans() ([]byte, error) {
	return json.Marshal(ss.SnapshotOrphans())
}

// DecodeOrphans parses a snapshot EncodeOrphans wrote and restores it.
func (ss Stages) DecodeOrphans(data []byte) error {
	var snaps []fusion.TrackerSnapshot
	if err := json.Unmarshal(data, &snaps); err != nil {
		return fmt.Errorf("track: decoding orphan snapshot: %w", err)
	}
	return ss.RestoreOrphans(snaps)
}
