// Package nn assembles the network layers of the paper's architectures:
// dense tanh layers, the random-Fourier-feature embedding, the strict
// periodic space / learned-period time embedding, and the quantum circuit
// layer that wraps the adjoint PQC runner as a differentiable tape
// operation. Layers operate on dual values so PDE input derivatives
// propagate through every stage, including the quantum circuit.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ad"
)

// Param is one trainable buffer. Grad is populated by binding the parameter
// to a tape each step (Bind) and reading back after Backward (PullGrad).
type Param struct {
	Name       string
	Rows, Cols int
	W          []float64
	Grad       []float64
	leaf       ad.Value
}

// Registry owns all parameters of a model.
type Registry struct {
	Params []*Param
}

// New allocates a parameter. init fills the buffer.
func (r *Registry) New(name string, rows, cols int, init func(w []float64)) *Param {
	p := &Param{Name: name, Rows: rows, Cols: cols, W: make([]float64, rows*cols), Grad: make([]float64, rows*cols)}
	if init != nil {
		init(p.W)
	}
	r.Params = append(r.Params, p)
	return p
}

// Count returns the total number of scalar parameters.
func (r *Registry) Count() int {
	var n int
	for _, p := range r.Params {
		n += len(p.W)
	}
	return n
}

// Bind registers every parameter as a leaf on the tape for this step.
// trainable=false binds without gradient tracking (pure inference).
func (r *Registry) Bind(tp *ad.Tape, trainable bool) {
	for _, p := range r.Params {
		p.leaf = tp.Leaf(p.Rows, p.Cols, p.W, trainable)
	}
}

// PullGrads copies tape gradients back into each parameter's Grad buffer
// after Backward. Must follow a trainable Bind.
func (r *Registry) PullGrads() {
	for _, p := range r.Params {
		g := p.leaf.Grad()
		if g == nil && len(p.W) > 0 { // an empty parameter has no gradient buffer
			panic(fmt.Sprintf("nn: PullGrads on non-trainable bind (%s)", p.Name))
		}
		copy(p.Grad, g)
	}
}

// Buffers returns the parameter buffers in registry order (optimizer input).
func (r *Registry) Buffers() [][]float64 {
	out := make([][]float64, len(r.Params))
	for i, p := range r.Params {
		out[i] = p.W
	}
	return out
}

// Grads returns the gradient buffer for parameter i (optimizer accessor).
func (r *Registry) Grads(i int) []float64 { return r.Params[i].Grad }

// Leaf returns the parameter's current tape handle (valid after Bind).
func (p *Param) Leaf() ad.Value { return p.leaf }

// GradNormAndVar returns the L2 norm and the scalar variance of the full
// concatenated gradient vector — the quantities tracked in the paper's
// Fig. 10c–d to localize the black-hole collapse.
func (r *Registry) GradNormAndVar() (norm, variance float64) {
	var sum, sumSq float64
	var n int
	for _, p := range r.Params {
		for _, g := range p.Grad {
			sum += g
			sumSq += g * g
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean := sum / float64(n)
	return math.Sqrt(sumSq), sumSq/float64(n) - mean*mean
}

// XavierInit returns a Glorot-uniform initializer for a rows×cols matrix.
func XavierInit(rng *rand.Rand, rows, cols int) func([]float64) {
	bound := math.Sqrt(6.0 / float64(rows+cols))
	return func(w []float64) {
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * bound
		}
	}
}

// ZeroInit leaves the buffer at zero (biases).
func ZeroInit(w []float64) {}

// ConstInit fills the buffer with c.
func ConstInit(c float64) func([]float64) {
	return func(w []float64) {
		for i := range w {
			w[i] = c
		}
	}
}
