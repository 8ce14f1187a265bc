package ad

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
)

// The three triple-loop kernels below are the reference the tiled kernels in
// matmul.go must reproduce bit for bit. They are kept verbatim (renamed
// only) as the oracle for TestMatMulKernelsMatchOracle.

// refMMAcc computes C += A(n×k)·B(k×m) in row-major order, parallel over rows
// of A. The ikj loop order keeps the inner loop streaming over contiguous
// memory in both B and C.
func refMMAcc(c, a, b []float64, n, k, m int) {
	par.ForGrain(n, k*m, func(s, e int) {
		for i := s; i < e; i++ {
			ci := c[i*m : (i+1)*m]
			ai := a[i*k : (i+1)*k]
			for l, av := range ai {
				if av == 0 {
					continue
				}
				bl := b[l*m : (l+1)*m]
				for j, bv := range bl {
					ci[j] += av * bv
				}
			}
		}
	})
}

// refMMNTAcc computes C += A(n×m)·Bᵀ where B is k×m, giving C of shape n×k.
// This is the dA = dC·Wᵀ step of the MatMul backward. Dot-product form,
// parallel over rows of A.
func refMMNTAcc(c, a, b []float64, n, m, k int) {
	par.ForGrain(n, k*m, func(s, e int) {
		for i := s; i < e; i++ {
			ai := a[i*m : (i+1)*m]
			ci := c[i*k : (i+1)*k]
			for j := 0; j < k; j++ {
				bj := b[j*m : (j+1)*m]
				var sum float64
				for l, av := range ai {
					sum += av * bj[l]
				}
				ci[j] += sum
			}
		}
	})
}

// refMMTNAcc computes C += Aᵀ·B where A is n×k and B is n×m, giving C of shape
// k×m. This is the dW = Xᵀ·dC step. Parallelizing over rows of A would race
// on C, so the loop splits over the k dimension instead.
func refMMTNAcc(c, a, b []float64, n, k, m int) {
	par.ForGrain(k, n*m/max(k, 1), func(s, e int) {
		for l := s; l < e; l++ {
			cl := c[l*m : (l+1)*m]
			for i := 0; i < n; i++ {
				av := a[i*k+l]
				if av == 0 {
					continue
				}
				bi := b[i*m : (i+1)*m]
				for j, bv := range bi {
					cl[j] += av * bv
				}
			}
		}
	})
}

// oracleOperand returns n random entries in [-1, 1) with roughly every
// fourth one an exact zero, the case the reference kernels skipped.
func oracleOperand(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(4) != 0 {
			s[i] = 2*rng.Float64() - 1
		}
	}
	return s
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMatMulKernelsMatchOracle: the tiled kernels reproduce the reference
// triple loops bit for bit over every 2×3 tile remainder — odd and even row
// counts, and every residue mod 3 (and mod 4) of the column extents, which
// are m for A·B and Aᵀ·B and k for A·Bᵀ — with exact zeros in the operands,
// accumulation into a nonzero C, and 1, 2 and 4 workers.
func TestMatMulKernelsMatchOracle(t *testing.T) {
	defer par.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(11))
	tp := NewTape()
	for _, workers := range []int{1, 2, 4} {
		par.SetMaxWorkers(workers)
		for _, n := range []int{1, 2, 3, 125} {
			for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 128} {
				for _, k := range []int{1, 5, 6, 7, 256} {
					name := fmt.Sprintf("workers=%d n=%d k=%d m=%d", workers, n, k, m)
					c0 := oracleOperand(rng, n*m)

					// Forward: C(n×m) += A(n×k)·B(k×m).
					a, b := oracleOperand(rng, n*k), oracleOperand(rng, k*m)
					got, want := slices.Clone(c0), slices.Clone(c0)
					tp.mmAcc(got, a, b, n, k, m)
					refMMAcc(want, a, b, n, k, m)
					sameBits(t, name+" A·B", got, want)

					// dA: C(n×k) += G(n×m)·Bᵀ for B k×m.
					g, ck := oracleOperand(rng, n*m), oracleOperand(rng, n*k)
					got, want = slices.Clone(ck), slices.Clone(ck)
					mmNTAcc(got, g, b, n, m, k)
					refMMNTAcc(want, g, b, n, m, k)
					sameBits(t, name+" A·Bᵀ", got, want)

					// dW: C(k×m) += Aᵀ·G for A n×k, G n×m.
					cw := oracleOperand(rng, k*m)
					got, want = slices.Clone(cw), slices.Clone(cw)
					tp.mmTNAcc(got, a, g, n, k, m)
					refMMTNAcc(want, a, g, n, k, m)
					sameBits(t, name+" Aᵀ·B", got, want)
				}
			}
		}
	}
}

// TestMatMulTNSplitsAcrossWorkers pins the dW grain: the QPINN adapter's
// weight gradient (125 points × 128 hidden × 7 qubits, 112k multiply-adds)
// must be split across workers, not run as one serial chunk.
func TestMatMulTNSplitsAcrossWorkers(t *testing.T) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(2)
	const n, k, m = 125, 128, 7
	rng := rand.New(rand.NewSource(3))
	a, g, c := oracleOperand(rng, n*k), oracleOperand(rng, n*m), make([]float64, k*m)
	tp := NewTape()
	before := par.Stats().Chunks
	tp.mmTNAcc(c, a, g, n, k, m)
	if chunks := par.Stats().Chunks - before; chunks < 2 {
		t.Fatalf("dW %d×%d×%d ran in %d chunk(s), want > 1", n, k, m, chunks)
	}
}

// BenchmarkMatMulKernels times the tiled kernels and the reference on the
// paper-width dense-layer shapes: 125 points through a 128→128 layer, and
// the 128→7 adapter.
func BenchmarkMatMulKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tp := NewTape()
	for _, s := range []struct{ n, k, m int }{{125, 128, 128}, {125, 256, 128}, {125, 128, 7}, {125, 6, 128}} {
		n, k, m := s.n, s.k, s.m
		x, w, g := oracleOperand(rng, n*k), oracleOperand(rng, k*m), oracleOperand(rng, n*m)
		cf, cw, ca := make([]float64, n*m), make([]float64, k*m), make([]float64, n*k)
		shape := fmt.Sprintf("%dx%dx%d", n, k, m)
		b.Run("fwd/tiled/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tp.mmAcc(cf, x, w, n, k, m)
			}
		})
		b.Run("fwd/ref/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refMMAcc(cf, x, w, n, k, m)
			}
		})
		b.Run("dW/tiled/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tp.mmTNAcc(cw, x, g, n, k, m)
			}
		})
		b.Run("dW/ref/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refMMTNAcc(cw, x, g, n, k, m)
			}
		})
		b.Run("dA/tiled/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mmNTAcc(ca, g, w, n, m, k)
			}
		})
		b.Run("dA/ref/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refMMNTAcc(ca, g, w, n, m, k)
			}
		})
	}
}
