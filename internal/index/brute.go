package index

import (
	"fmt"
	"math"

	"netcoord/internal/bheap"
	"netcoord/internal/coord"
)

// Brute is the O(n)-scan reference implementation of the kd-tree's
// queries. It exists as the correctness oracle for the Tree — identical
// semantics, no cleverness — and as the baseline the registry
// benchmarks beat.
type Brute struct {
	dim int
	pts map[string]coord.Coordinate
}

// NewBrute builds an empty brute-force index for the given dimension.
func NewBrute(dim int) (*Brute, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("index: dimension %d, want > 0", dim)
	}
	return &Brute{dim: dim, pts: make(map[string]coord.Coordinate)}, nil
}

// Insert adds or replaces the point with the given id.
func (b *Brute) Insert(id string, c coord.Coordinate) error {
	if err := c.Validate(b.dim); err != nil {
		return fmt.Errorf("index insert %q: %w", id, err)
	}
	b.pts[id] = c
	return nil
}

// Remove deletes the point, reporting whether it was present.
func (b *Brute) Remove(id string) bool {
	if _, ok := b.pts[id]; !ok {
		return false
	}
	delete(b.pts, id)
	return true
}

// Len reports the number of points.
func (b *Brute) Len() int { return len(b.pts) }

// KNearest scans every point and keeps the best k under (distance, id).
func (b *Brute) KNearest(from coord.Coordinate, k int) ([]Neighbor, error) {
	if err := from.Validate(b.dim); err != nil {
		return nil, fmt.Errorf("index knearest: %w", err)
	}
	if k <= 0 {
		return nil, fmt.Errorf("index knearest: k = %d, want > 0", k)
	}
	h := bheap.New(k, neighborBefore)
	for id, c := range b.pts {
		d, _ := from.DistanceTo(c)
		h.Offer(Neighbor{ID: id, Distance: d, Slot: none})
	}
	res := h.Items()
	sortNeighbors(res)
	return res, nil
}

// Within scans every point and keeps those at distance <= radius.
func (b *Brute) Within(from coord.Coordinate, radius float64) ([]Neighbor, error) {
	if err := from.Validate(b.dim); err != nil {
		return nil, fmt.Errorf("index within: %w", err)
	}
	if radius < 0 || math.IsNaN(radius) {
		return nil, fmt.Errorf("index within: radius %v, want >= 0", radius)
	}
	var res []Neighbor
	for id, c := range b.pts {
		d, _ := from.DistanceTo(c)
		if d <= radius {
			res = append(res, Neighbor{ID: id, Distance: d, Slot: none})
		}
	}
	sortNeighbors(res)
	return res, nil
}
