package netcoord

import (
	"fmt"
	"sort"
)

// peerState is the last-known coordinate state of a remote node.
type peerState struct {
	coord Coordinate
	err   float64
}

// rememberPeer records the freshest remote state, respecting the
// MaxLinks bound (shared with the filter bank: if we filter a link, we
// can afford to remember its coordinate). A known peer's coordinate is
// overwritten in place; only a new peer's is cloned. Callers hold c.mu.
func (c *Client) rememberPeer(id string, remote Coordinate, remoteErr float64) {
	st, known := c.peers[id]
	switch {
	case known:
		st.coord.CopyFrom(remote)
		st.err = remoteErr
	case c.cfg.MaxLinks > 0 && len(c.peers) >= c.cfg.MaxLinks:
		return
	default:
		st = peerState{coord: remote.Clone(), err: remoteErr}
	}
	c.peers[id] = st
}

// PeerCoordinate returns the last coordinate observed for the given peer
// id, if any.
func (c *Client) PeerCoordinate(id string) (Coordinate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.peers[id]
	if !ok {
		return Coordinate{}, false
	}
	return st.coord.Clone(), true
}

// EstimateRTTToPeer predicts the RTT in milliseconds to a peer the
// client has observed before, from its remembered coordinate.
func (c *Client) EstimateRTTToPeer(id string) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.peers[id]
	if !ok {
		return 0, fmt.Errorf("netcoord: unknown peer %q", id)
	}
	d, err := c.ep.Sys().DistanceTo(st.coord)
	if err != nil {
		return 0, fmt.Errorf("netcoord: %w", err)
	}
	return d, nil
}

// Peers returns the ids of all remembered peers, sorted.
func (c *Client) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for id := range c.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NearestPeers ranks the remembered peers by estimated RTT and returns
// the closest k — Nearest over the client's own observation history.
func (c *Client) NearestPeers(k int) ([]Ranked, error) {
	c.mu.Lock()
	candidates := make([]Candidate, 0, len(c.peers))
	for id, st := range c.peers {
		candidates = append(candidates, Candidate{ID: id, Coord: st.coord.Clone()})
	}
	self := c.ep.Sys().Clone()
	c.mu.Unlock()
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ID < candidates[j].ID })
	return Nearest(self, candidates, k)
}

// ForgetPeer drops the remembered coordinate, the link filter state,
// and any cached nearest-neighbor status for a departed peer.
func (c *Client) ForgetPeer(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.peers, id)
	c.ep.Forget(id)
}
