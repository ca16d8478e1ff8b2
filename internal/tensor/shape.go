// Package tensor provides the dense numeric substrate used by the Ramiel
// operator kernels: shapes, float32 tensors, a deterministic RNG and a
// parallel-for helper that implements intra-operator parallelism.
//
// The package plays the role PyTorch's ATen plays for the paper's
// implementation: the clustering and code-generation layers never touch raw
// data, but the executors run real kernels from internal/ops on the values
// defined here.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Shape describes the extents of a tensor, outermost dimension first.
// Conventions follow ONNX: activations are NCHW, matrices are (rows, cols).
type Shape []int

// NewShape copies dims into a fresh Shape.
func NewShape(dims ...int) Shape {
	s := make(Shape, len(dims))
	copy(s, dims)
	return s
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Numel returns the total number of elements, 1 for a scalar (rank 0).
// An invalid shape (see Valid) yields 0.
func (s Shape) Numel() int {
	n, _ := s.numel()
	return n
}

// numel multiplies the extents, reporting false (with n = 0) for a
// negative extent or a product that overflows int.
func (s Shape) numel() (n int, ok bool) {
	n = 1
	for _, d := range s {
		if d < 0 {
			return 0, false
		}
		hi, lo := bits.Mul64(uint64(n), uint64(d))
		if hi != 0 || lo > math.MaxInt {
			return 0, false
		}
		n = int(lo)
	}
	return n, true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every extent is non-negative and the element
// count fits in an int, so shapes read from untrusted input cannot wrap
// Numel around to a small number.
func (s Shape) Valid() bool {
	_, ok := s.numel()
	return ok
}

// Strides returns row-major strides for the shape.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// String renders the shape as "[a b c]".
func (s Shape) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, d := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte(']')
	return b.String()
}

// Dim returns the extent of dimension i, supporting negative indices
// counted from the end (-1 is the innermost dimension).
func (s Shape) Dim(i int) int {
	if i < 0 {
		i += len(s)
	}
	if i < 0 || i >= len(s) {
		panic(fmt.Sprintf("tensor: dimension %d out of range for shape %v", i, s))
	}
	return s[i]
}

// Concat returns the shape that results from concatenating shapes along
// axis. All shapes must agree on every other dimension.
func Concat(axis int, shapes ...Shape) (Shape, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("tensor: concat of zero shapes")
	}
	base := shapes[0].Clone()
	if axis < 0 {
		axis += len(base)
	}
	if axis < 0 || axis >= len(base) {
		return nil, fmt.Errorf("tensor: concat axis %d out of range for %v", axis, shapes[0])
	}
	for _, sh := range shapes[1:] {
		if len(sh) != len(base) {
			return nil, fmt.Errorf("tensor: concat rank mismatch %v vs %v", base, sh)
		}
		for d := range sh {
			if d == axis {
				continue
			}
			if sh[d] != base[d] {
				return nil, fmt.Errorf("tensor: concat dim %d mismatch %v vs %v", d, base, sh)
			}
		}
		base[axis] += sh[axis]
	}
	return base, nil
}

// Broadcast returns the NumPy-style broadcast shape of a and b, or an error
// if they are incompatible.
func Broadcast(a, b Shape) (Shape, error) {
	ra, rb := len(a), len(b)
	r := ra
	if rb > r {
		r = rb
	}
	out := make(Shape, r)
	for i := 0; i < r; i++ {
		da, db := 1, 1
		if i >= r-ra {
			da = a[i-(r-ra)]
		}
		if i >= r-rb {
			db = b[i-(r-rb)]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast %v with %v", a, b)
		}
	}
	return out, nil
}
