package coord

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout (big endian):
//
//	uint8   dimension d (max 16)
//	d × float64 components
//	float64 height
//
// The cap on dimension bounds the allocation triggered by a hostile
// packet; real systems use 2-8 dimensions.
const (
	// MaxDimension bounds the coordinate dimensionality accepted on the
	// wire.
	MaxDimension = 16
	float64Size  = 8
)

// EncodedSize returns the number of bytes Encode will produce for a
// coordinate of the given dimension.
func EncodedSize(dim int) int {
	return 1 + dim*float64Size + float64Size
}

// Encode appends the binary form of c to dst and returns the extended
// slice.
func (c Coordinate) Encode(dst []byte) ([]byte, error) {
	if c.Dim() > MaxDimension {
		return nil, fmt.Errorf("%w: dimension %d exceeds wire maximum %d", ErrInvalid, c.Dim(), MaxDimension)
	}
	return c.AppendLayout(dst), nil
}

// AppendLayout appends the binary layout of c to dst and returns the
// extended slice. It cannot fail: the caller has checked that c.Dim()
// is at most MaxDimension, as Encode does.
//
//nc:hotpath
func (c Coordinate) AppendLayout(dst []byte) []byte {
	dst = append(dst, byte(c.Dim()))
	for _, comp := range c.Vec {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(comp))
	}
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Height))
}

// Decode parses a coordinate from the front of src, returning the
// coordinate and the remaining bytes. The caller should still Validate
// the result against its expected dimension.
func Decode(src []byte) (Coordinate, []byte, error) {
	if len(src) < 1 {
		return Coordinate{}, nil, fmt.Errorf("%w: empty buffer", ErrInvalid)
	}
	dim := int(src[0])
	if dim > MaxDimension {
		return Coordinate{}, nil, fmt.Errorf("%w: wire dimension %d exceeds maximum %d", ErrInvalid, dim, MaxDimension)
	}
	need := EncodedSize(dim)
	if len(src) < need {
		return Coordinate{}, nil, fmt.Errorf("%w: truncated coordinate (%d bytes, need %d)", ErrInvalid, len(src), need)
	}
	c := Origin(dim)
	off := 1
	for i := 0; i < dim; i++ {
		c.Vec[i] = math.Float64frombits(binary.BigEndian.Uint64(src[off:]))
		off += float64Size
	}
	c.Height = math.Float64frombits(binary.BigEndian.Uint64(src[off:]))
	off += float64Size
	return c, src[off:], nil
}
