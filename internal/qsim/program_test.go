package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// progNetMatrix composes the dense net unitary of a compiled program's
// non-embedding instructions via the naive-oracle instrMatrix expansion.
func progNetMatrix(p *Program, coeff []float64) cmat {
	dim := 1 << p.circ.NumQubits
	u := eye(dim)
	for _, in := range p.ins {
		if in.op == opEmbedAll {
			continue
		}
		u = p.instrMatrix(in, coeff).mul(u)
	}
	return u
}

// TestProgramNetUnitaryOracle is the compiler-level parity oracle: the
// composed dense matrix of the compiled instruction stream must equal the
// gate-by-gate dense product of the source circuit.
// This pins every fusion pass — single-qubit runs, diagonal merges, 4×4
// entangler blocks, CNOT-mesh permutations, full-register diagonals —
// independently of the execution kernels.
func TestProgramNetUnitaryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, a := range AllAnsatze {
		circ := a.Build(4, 2)
		theta := randTheta(rng, circ.NumParams)
		dim := 1 << circ.NumQubits
		ref := eye(dim)
		for _, g := range circ.Gates {
			ref = expand(g, theta, circ.NumQubits).mul(ref)
		}
		prog := CompileProgram(circ)
		coeff := make([]float64, prog.NumCoeffs())
		prog.FillCoeffs(theta, coeff)
		got := progNetMatrix(prog, coeff)
		var maxd float64
		for i := range ref.data {
			if d := cmplx.Abs(got.data[i] - ref.data[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-12 {
			t.Errorf("%v: net unitary diverges from gate product by %v", a, maxd)
		}
	}
}

// TestProgramDerivCoeffsOracle checks the fused-block derivative matrices
// against central finite differences of the forward coefficients: for every
// fused unitary instruction, dU/dθ_p from FillDerivCoeffs must match
// (U(θ+ε) − U(θ−ε)) / 2ε. The ansätze cover multi-gate 2×2 runs and 4×4
// entangler blocks.
func TestProgramDerivCoeffsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const eps = 1e-6
	for _, a := range []AnsatzKind{StronglyEntangling, CrossMesh2Rot, CrossMeshCNOT} {
		circ := a.Build(4, 2)
		theta := randTheta(rng, circ.NumParams)
		prog := CompileProgram(circ)
		deriv := make([]float64, prog.nderiv)
		plus := make([]float64, prog.ncoef)
		minus := make([]float64, prog.ncoef)
		prog.FillDerivCoeffs(theta, deriv)
		tweak := append([]float64(nil), theta...)
		for _, in := range prog.ins {
			if in.logDeriv {
				continue // no derivative slots read: the adjoint reads the states
			}
			var width int
			switch in.op {
			case opU2:
				width = 8
			case opU4:
				width = 32
			default:
				continue
			}
			for pi, p := range in.params {
				tweak[p] = theta[p] + eps
				prog.FillCoeffs(tweak, plus)
				tweak[p] = theta[p] - eps
				prog.FillCoeffs(tweak, minus)
				tweak[p] = theta[p]
				for i := 0; i < width; i++ {
					fd := (plus[in.slot+i] - minus[in.slot+i]) / (2 * eps)
					an := deriv[in.dslot+width*pi+i]
					if math.Abs(fd-an) > 1e-8 {
						t.Fatalf("%v op=%d param %d coeff %d: analytic %v vs finite-diff %v", a, in.op, p, i, an, fd)
					}
				}
			}
		}
	}
}

// TestProgramDiagCommutationAbsorb pins the commutation-aware diagonal
// absorption: diagonal instructions separated by blocks with disjoint
// support merge into one full-register diagonal, while a blocker touching
// the diagonal's support keeps it out of the group. Both the instruction
// shapes and full numerical parity against the legacy engine are checked.
func TestProgramDiagCommutationAbsorb(t *testing.T) {
	// CRZ(0→1), CNOT(2→3), RZ(0), CRZ(0→1): the CNOT's support {2,3} is
	// disjoint from every diagonal's support, so all three diagonals commute
	// into one group.
	circ := &Circuit{
		Name:      "diag-commute",
		NumQubits: 4,
		Gates: []Gate{
			{CRZ, 1, 0, 0},
			{CNOT, 3, 2, -1},
			{RZ, 0, -1, 1},
			{CRZ, 1, 0, 2},
		},
		NumParams: 3,
	}
	prog := CompileProgram(circ)
	if got := prog.NumInstructions(); got != 3 { // embed + diagN + CNOT
		t.Fatalf("commuting diagonals: %d instructions, want 3", got)
	}
	var dn *instr
	for i := range prog.ins {
		if prog.ins[i].op == opDiagN {
			dn = &prog.ins[i]
		}
	}
	if dn == nil || len(dn.params) != 3 {
		t.Fatalf("expected one fused diagonal absorbing all 3 parameters, got %+v", dn)
	}

	// RZ(0), CNOT(0→1), RZ(0): the CNOT touches qubit 0, so the diagonals
	// must NOT commute past it into one group — instead pair fusion absorbs
	// all three into a single two-qubit block.
	blocked := &Circuit{
		Name:      "diag-blocked",
		NumQubits: 2,
		Gates: []Gate{
			{RZ, 0, -1, 0},
			{CNOT, 1, 0, -1},
			{RZ, 0, -1, 1},
		},
		NumParams: 2,
	}
	bprog := CompileProgram(blocked)
	for i := range bprog.ins {
		if bprog.ins[i].op == opDiagN {
			t.Fatalf("blocked diagonals fused across a non-commuting CNOT")
		}
	}

	// Numerical parity on both shapes, all engines.
	rng := rand.New(rand.NewSource(321))
	for _, c := range []*Circuit{circ, blocked} {
		n, nq := 3, c.NumQubits
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, c.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, nil}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), nil, nil}
		ref := runEngine(EngineLegacy, c, n, angles, tans, theta, gz, gztans)
		for _, kind := range []EngineKind{EngineSharded, EngineNaive} {
			got := runEngine(kind, c, n, angles, tans, theta, gz, gztans)
			//torq:allow maprange -- independent per-series assertions
			for name, pair := range map[string][2][]float64{
				"z": {ref.z, got.z}, "dAngles": {ref.dAngles, got.dAngles},
				"dTheta": {ref.dTheta, got.dTheta},
			} {
				if d := maxAbsDiff(pair[0], pair[1]); d > 1e-10 {
					t.Errorf("%s engine=%v: %s diverges by %v", c.Name, kind, name, d)
				}
			}
		}
	}
}

// TestProgramDiagNSigns pins the structure of the full-register diagonal
// sign tables: a CRZ contributes 0 on its control-unset half and ∓1 with
// the target bit on the control-set half.
func TestProgramDiagNSigns(t *testing.T) {
	circ := CrossMesh.Build(3, 1)
	prog := CompileProgram(circ)
	var dn *instr
	for i := range prog.ins {
		if prog.ins[i].op == opDiagN {
			dn = &prog.ins[i]
			break
		}
	}
	if dn == nil {
		t.Fatal("CrossMesh program has no fused diagonal instruction")
	}
	dim := 1 << circ.NumQubits
	if len(dn.params) != 6 || len(dn.signs) != 6*dim {
		t.Fatalf("fused diagonal: %d params, %d signs", len(dn.params), len(dn.signs))
	}
	pi := 0
	for _, g := range dn.gates {
		row := dn.signs[pi*dim : (pi+1)*dim]
		for j := 0; j < dim; j++ {
			want := int8(0)
			if j&(1<<g.C) != 0 {
				if j&(1<<g.Q) == 0 {
					want = 1
				} else {
					want = -1
				}
			}
			if row[j] != want {
				t.Fatalf("gate CRZ(c=%d,t=%d) basis %d: sign %d, want %d", g.C, g.Q, j, row[j], want)
			}
		}
		pi++
	}
}
