package netcoord

import (
	"encoding/json"
	"fmt"
)

// Snapshot is a serializable capture of a Client's coordinate state.
// Persisting one across restarts lets a node rejoin the coordinate space
// where it left off instead of re-converging from the origin — the same
// practice the Vivaldi deployments the paper influenced (Azureus/Pyxida,
// hashicorp/serf) adopted.
//
// Snapshots deliberately exclude per-link filter state and the
// change-detection windows: both are short (h = 4 observations, one
// window pair) and rebuild within seconds, while a stale window carried
// across downtime would mislead the detector.
type Snapshot struct {
	// Version guards the serialization format.
	Version int `json:"version"`
	// Sys is the system-level coordinate.
	Sys Coordinate `json:"sys"`
	// App is the application-level coordinate.
	App Coordinate `json:"app"`
	// Error is the Vivaldi error weight w.
	Error float64 `json:"error"`
}

// snapshotVersion is the current Snapshot format.
const snapshotVersion = 1

// Snapshot captures the client's current coordinates and error weight.
func (c *Client) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Version: snapshotVersion,
		Sys:     c.ep.Sys().Clone(),
		App:     c.ep.App().Clone(),
		Error:   c.ep.Error(),
	}
}

// Restore loads a snapshot into the client. Both coordinates are
// validated against the client's dimension. The policy is re-primed
// with the persisted application-level coordinate — not the system
// coordinate — so the node resumes publishing its stable pre-restart
// position and only moves on the next genuinely significant change;
// priming with Sys would make every restart an application-coordinate
// jump, exactly the churn the system/app split exists to prevent. The
// policy windows restart empty and refill from live observations.
func (c *Client) Restore(s Snapshot) error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("netcoord: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	app := s.App
	if app.Dim() == 0 {
		// Version-1 blobs written before App was authoritative (or
		// hand-built without it) carry a zero App; fall back to the old
		// behavior of priming from Sys rather than rejecting a snapshot
		// that used to restore fine.
		app = s.Sys
	}
	if err := c.ep.Restore(s.Sys, app, s.Error); err != nil {
		return fmt.Errorf("netcoord: restore: %w", err)
	}
	return nil
}

// MarshalBinaryJSON renders the snapshot as JSON bytes, the stable
// on-disk form.
func (s Snapshot) MarshalBinaryJSON() ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("netcoord: marshal snapshot: %w", err)
	}
	return data, nil
}

// ParseSnapshot parses JSON bytes produced by MarshalBinaryJSON.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("netcoord: parse snapshot: %w", err)
	}
	return s, nil
}
