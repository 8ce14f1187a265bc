package ad

import (
	"fmt"

	"repro/internal/par"
)

// Dense kernels. Every MatMul/MatMulC forward and backward pass runs the
// register-tiled micro-kernel tile2x3 over row-major float64 matrices,
// through one of two drivers:
//
//   - mmAccRange: C += A·B, with B read as its transpose bt, so each 3-column
//     panel of B is three contiguous rows of bt. A 2×3 tile of C is loaded
//     into registers, updated once per step along the inner dimension, and
//     stored back. The dW = Xᵀ·dC product transposes both operands into
//     tape-pool scratch and runs the same driver.
//   - mmNTRange: C += A·Bᵀ (dA = dC·Wᵀ), a 2×3 tile of independent dot sums
//     over rows of A and rows of B, each added to C once at the end.
//
// The tile is 2×3 because Go's scheduler issues every multiply of a loop
// step before any of its adds: a tile of t accumulators then holds 2t
// floats live, and amd64 has 15 allocatable float registers. A 2×4 tile
// spills on every step and ran about 25% slower.
//
// Summation-order contract: each output element is accumulated exactly as
// by the reference triple loops in matmul_oracle_test.go. For A·B and Aᵀ·B,
// c[i][j] starts from its stored value and adds a[i][l]·b[l][j] for l
// ascending. For A·Bᵀ, a dot sum starts at +0, adds a[i][l]·b[j][l] for l
// ascending, and is added to c[i][j] once. Tiling changes only which
// elements are in flight together, so results are bit-identical to the
// reference and independent of the worker count. The reference skipped
// a[i][l] == 0 terms. Adding the 0·b term instead changes no sum with
// finite b: x + (±0) == x for every x except −0, and under round-to-nearest
// an accumulator that does not start at −0 never becomes −0.

// mmAcc computes C += A(n×k)·B(k×m), parallel over row pairs of A.
func (t *Tape) mmAcc(c, a, b []float64, n, k, m int) {
	bt := t.pool.scratch(k * m)
	transpose(bt, b, k, m)
	par.ForGrain((n+1)/2, 2*k*m, func(s, e int) {
		mmAccRange(c, a, bt, k, m, 2*s, min(2*e, n))
	})
	t.pool.put(bt)
}

// mmTNAcc computes C += Aᵀ·B where A is n×k and B is n×m, giving C of shape
// k×m: the dW = Xᵀ·dC step. Both operands are transposed so the forward
// kernel runs over row pairs of C, each row costing n·m, and each element
// still accumulates in ascending row order of A.
func (t *Tape) mmTNAcc(c, a, b []float64, n, k, m int) {
	at, bt := t.pool.scratch(n*k), t.pool.scratch(n*m)
	transpose(at, a, n, k)
	transpose(bt, b, n, m)
	par.ForGrain((k+1)/2, 2*n*m, func(s, e int) {
		mmAccRange(c, at, bt, n, m, 2*s, min(2*e, k))
	})
	t.pool.put(at)
	t.pool.put(bt)
}

// mmNTAcc computes C += A(n×m)·Bᵀ where B is k×m, giving C of shape n×k:
// the dA = dC·Wᵀ step, parallel over row pairs of A.
func mmNTAcc(c, a, b []float64, n, m, k int) {
	par.ForGrain((n+1)/2, 2*k*m, func(s, e int) {
		mmNTRange(c, a, b, m, k, 2*s, min(2*e, n))
	})
}

// transpose writes the k×n transpose of A (n×k) into dst.
//
//torq:hotpath
func transpose(dst, a []float64, n, k int) {
	for i := 0; i < n; i++ {
		row := a[i*k : i*k+k]
		for l, v := range row {
			dst[l*n+i] = v
		}
	}
}

// mmAccRange computes rows [lo, hi) of C(·×m) += A(·×k)·B for B given as
// its transpose bt (m×k). lo is even. A tile that overhangs the last row or
// column of C repeats that row or column for its loads and skips the
// overhanging stores.
//
//torq:hotpath
func mmAccRange(c, a, bt []float64, k, m, lo, hi int) {
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		a0 := a[i*k : i*k+k]
		a1 := a[i1*k : i1*k+k]
		c0 := c[i*m : i*m+m]
		c1 := c[i1*m : i1*m+m]
		for j := 0; j < m; j += 3 {
			j1, j2 := min(j+1, m-1), min(j+2, m-1)
			b0 := bt[j*k : j*k+k]
			b1 := bt[j1*k : j1*k+k]
			b2 := bt[j2*k : j2*k+k]
			c00, c01, c02, c10, c11, c12 := tile2x3(a0, a1, b0, b1, b2,
				c0[j], c0[j1], c0[j2], c1[j], c1[j1], c1[j2])
			c0[j] = c00
			if j1 > j {
				c0[j1] = c01
			}
			if j2 > j1 {
				c0[j2] = c02
			}
			if i1 > i {
				c1[j] = c10
				if j1 > j {
					c1[j1] = c11
				}
				if j2 > j1 {
					c1[j2] = c12
				}
			}
		}
	}
}

// mmNTRange computes rows [lo, hi) of C(·×k) += A(·×m)·Bᵀ for B k×m. lo is
// even. Overhanging tiles are handled as in mmAccRange.
//
//torq:hotpath
func mmNTRange(c, a, b []float64, m, k, lo, hi int) {
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		a0 := a[i*m : i*m+m]
		a1 := a[i1*m : i1*m+m]
		c0 := c[i*k : i*k+k]
		c1 := c[i1*k : i1*k+k]
		for j := 0; j < k; j += 3 {
			j1, j2 := min(j+1, k-1), min(j+2, k-1)
			b0 := b[j*m : j*m+m]
			b1 := b[j1*m : j1*m+m]
			b2 := b[j2*m : j2*m+m]
			s00, s01, s02, s10, s11, s12 := tile2x3(a0, a1, b0, b1, b2, 0, 0, 0, 0, 0, 0)
			c0[j] += s00
			if j1 > j {
				c0[j1] += s01
			}
			if j2 > j1 {
				c0[j2] += s02
			}
			if i1 > i {
				c1[j] += s10
				if j1 > j {
					c1[j1] += s11
				}
				if j2 > j1 {
					c1[j2] += s12
				}
			}
		}
	}
}

// tile2x3 is the micro-kernel: it returns each accumulator cRC plus
// Σ_l aR[l]·bC[l], added for l ascending, for rows a0, a1 and columns
// b0, b1, b2 of equal length. It is kept out of line so the loop runs with
// only its own operands live.
//
//torq:hotpath
func tile2x3(a0, a1, b0, b1, b2 []float64, c00, c01, c02, c10, c11, c12 float64) (float64, float64, float64, float64, float64, float64) {
	a1 = a1[:len(a0)]
	b0, b1, b2 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)]
	for l, x0 := range a0 {
		x1 := a1[l]
		y0, y1, y2 := b0[l], b1[l], b2[l]
		c00 += x0 * y0
		c01 += x0 * y1
		c02 += x0 * y2
		c10 += x1 * y0
		c11 += x1 * y1
		c12 += x1 * y2
	}
	return c00, c01, c02, c10, c11, c12
}

// MatMul returns a·b for a[n×k] and b[k×m]; both operands participate in
// gradient flow. b is typically a weight matrix leaf.
func (t *Tape) MatMul(a, b Value) Value {
	na, nb := &t.nodes[a.i], &t.nodes[b.i]
	if na.cols != nb.rows {
		panic(fmt.Sprintf("ad: MatMul %d×%d · %d×%d", na.rows, na.cols, nb.rows, nb.cols))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(b.i)
	v, n := t.newNode(OpMatMul, a.i, b.i, int(na.rows), int(nb.cols), ng)
	t.mmAcc(n.val, na.val, nb.val, int(na.rows), int(na.cols), int(nb.cols))
	return v
}

// MatMulC returns a·M for a constant matrix M (k×m, row-major). The constant
// never receives gradients; only dA = dC·Mᵀ flows back.
func (t *Tape) MatMulC(a Value, m []float64, mCols int) Value {
	na := &t.nodes[a.i]
	k := int(na.cols)
	if len(m) != k*mCols {
		panic(fmt.Sprintf("ad: MatMulC const %d ≠ %d×%d", len(m), k, mCols))
	}
	v, n := t.newNode(OpMatMulC, a.i, -1, int(na.rows), mCols, t.needsGrad(a.i))
	n.cm = m
	n.cmCols = int32(mCols)
	t.mmAcc(n.val, na.val, m, int(na.rows), k, mCols)
	return v
}
