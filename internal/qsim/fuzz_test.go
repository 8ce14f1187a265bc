package qsim

import (
	"math/rand"
	"testing"
)

// Circuit-spec byte encoding of FuzzCompileProgram. A header
//
//	nq-1 (mod fuzzMaxQubits) | NumParams | Layers (mod 4) | flags (bit 0: Reupload)
//
// is followed by one byte per layer — the gap from the previous layer start
// (the first from 0) — and then four bytes per gate:
//
//	kind (mod 6) | Q (mod nq) | C (mod nq; two-qubit gates only) | P (mod NumParams)
//
// Single-qubit gates get C = −1 and CNOTs P = −1; kind 5, a two-qubit gate
// with C = Q, P ≥ NumParams when NumParams = 0 and out-of-range layer starts
// stay reachable, so Validate sees invalid specs too.
const (
	fuzzMaxQubits = 5
	fuzzMaxGates  = 64
)

// decodeCircuitSpec turns fuzz bytes into a circuit through
// NewCircuitFromSpec, or nil when the header is incomplete.
func decodeCircuitSpec(data []byte) *Circuit {
	if len(data) < 4 {
		return nil
	}
	nq := 1 + int(data[0])%fuzzMaxQubits
	nparams := int(data[1])
	layers := int(data[2]) % 4
	reupload := data[3]&1 == 1
	data = data[4:]
	if len(data) < layers {
		return nil
	}
	starts := make([]int, layers)
	prev := 0
	for l := range starts {
		prev += int(data[l])
		starts[l] = prev
	}
	data = data[layers:]
	var gates []Gate
	for len(data) >= 4 && len(gates) < fuzzMaxGates {
		g := Gate{Kind: GateKind(data[0] % 6), Q: int(data[1]) % nq, C: -1, P: -1}
		if g.Kind >= CNOT { // two-qubit kinds and the unknown kind 5
			g.C = int(data[2]) % nq
		}
		if g.Kind != CNOT {
			g.P = int(data[3])
			if nparams > 0 {
				g.P %= nparams
			}
		}
		gates = append(gates, g)
		data = data[4:]
	}
	return NewCircuitFromSpec("fuzz", nq, layers, gates, nparams, reupload, starts)
}

// encodeCircuitSpec is the inverse of decodeCircuitSpec for circuits inside
// its ranges; it builds the seed corpus.
func encodeCircuitSpec(t testing.TB, c *Circuit) []byte {
	starts := c.LayerStarts()
	if c.NumQubits > fuzzMaxQubits || c.NumParams > 255 || c.Layers > 3 ||
		len(starts) != c.Layers || len(c.Gates) > fuzzMaxGates {
		t.Fatalf("%s: outside the fuzz encoding", c.Name)
	}
	var flags byte
	if c.Reupload {
		flags = 1
	}
	out := []byte{byte(c.NumQubits - 1), byte(c.NumParams), byte(c.Layers), flags}
	prev := 0
	for _, s := range starts {
		if s-prev > 255 {
			t.Fatalf("%s: layer gap %d does not fit a byte", c.Name, s-prev)
		}
		out = append(out, byte(s-prev))
		prev = s
	}
	for _, g := range c.Gates {
		var cb, pb byte
		if g.C >= 0 {
			cb = byte(g.C)
		}
		if g.P >= 0 {
			pb = byte(g.P)
		}
		out = append(out, byte(g.Kind), byte(g.Q), cb, pb)
	}
	return out
}

// fuzzSeedCircuits lists the seed corpus: every ansatz at small shapes,
// with and without re-uploading, plus hand-built circuits that reach the
// compiler's corner cases — commuted and blocked diagonal groups,
// rotation-dense three-qubit blocks, and CNOT-mesh triples broken by
// rotations and controlled diagonals or meeting a pending rotation.
func fuzzSeedCircuits() []*Circuit {
	var cs []*Circuit
	for _, a := range AllAnsatze {
		for _, nq := range []int{1, 2, 3, 4} {
			for _, layers := range []int{1, 2} {
				c := a.Build(nq, layers)
				cs = append(cs, c, c.WithReupload())
			}
		}
	}
	spec := func(name string, nq, nparams int, gates ...Gate) *Circuit {
		return NewCircuitFromSpec(name, nq, 1, gates, nparams, false, []int{0})
	}
	cs = append(cs,
		spec("diag-commute", 4, 3,
			Gate{CRZ, 1, 0, 0}, Gate{CNOT, 3, 2, -1}, Gate{RZ, 0, -1, 1}, Gate{CRZ, 1, 0, 2}),
		spec("diag-blocked", 2, 2,
			Gate{RZ, 0, -1, 0}, Gate{CNOT, 1, 0, -1}, Gate{RZ, 0, -1, 1}),
		spec("isolated-rotations", 2, 2,
			Gate{RX, 0, -1, 0}, Gate{RY, 1, -1, 1}),
		spec("entangled-rotations", 4, 2,
			Gate{CNOT, 1, 0, -1}, Gate{RX, 1, -1, 0}, Gate{CNOT, 3, 2, -1}, Gate{RZ, 2, -1, 1}),
		spec("dense-triple", 3, 16,
			Gate{RZ, 0, -1, 0}, Gate{RY, 0, -1, 1}, Gate{RZ, 0, -1, 2},
			Gate{RZ, 1, -1, 3}, Gate{RY, 1, -1, 4}, Gate{RZ, 1, -1, 5},
			Gate{CNOT, 1, 0, -1},
			Gate{RZ, 0, -1, 6}, Gate{RY, 0, -1, 7}, Gate{RZ, 0, -1, 8},
			Gate{RZ, 1, -1, 9}, Gate{RY, 1, -1, 10}, Gate{RZ, 1, -1, 11},
			Gate{CNOT, 2, 1, -1},
			Gate{RZ, 2, -1, 12}, Gate{RY, 2, -1, 13}, Gate{RZ, 2, -1, 14},
			Gate{CRZ, 2, 0, 15}),
		spec("cnot-triple-broken", 3, 2,
			Gate{CNOT, 1, 0, -1}, Gate{CNOT, 2, 0, -1}, Gate{CRZ, 1, 0, 0},
			Gate{CNOT, 2, 1, -1}, Gate{CNOT, 0, 1, -1}, Gate{RY, 2, -1, 1},
			Gate{CNOT, 2, 0, -1}),
		spec("cnot-pair-meets-pending-rotation", 3, 1,
			Gate{CNOT, 1, 0, -1}, Gate{RY, 2, -1, 0}, Gate{CNOT, 2, 0, -1}),
	)
	return cs
}

// FuzzCompileProgram: for every circuit spec Validate accepts, compilation
// never panics and the compiled program, run forward and backward on the
// sharded engine, matches the legacy per-gate engine to 1e-10 — values,
// tangents, and angle, tangent and parameter gradients. This guards every
// fusion rule (block growth, diagonal absorption, log-derivative marking)
// against circuits no ansatz builds.
func FuzzCompileProgram(f *testing.F) {
	for _, c := range fuzzSeedCircuits() {
		f.Add(encodeCircuitSpec(f, c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		circ := decodeCircuitSpec(data)
		if circ == nil || circ.Validate() != nil {
			return
		}
		prog := CompileProgram(circ)
		_ = prog.Digest()
		rng := rand.New(rand.NewSource(int64(len(data))))
		n, nq := 3, circ.NumQubits
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, nil}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), nil, nil}
		ref := runEngine(EngineLegacy, circ, n, angles, tans, theta, gz, gztans)
		got := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
		//torq:allow maprange -- independent per-series assertions
		for name, pair := range map[string][2][]float64{
			"z": {ref.z, got.z}, "dAngles": {ref.dAngles, got.dAngles},
			"dTheta": {ref.dTheta, got.dTheta},
			"ztans":  {ref.ztans[0], got.ztans[0]}, "dTans": {ref.dTans[0], got.dTans[0]},
		} {
			if d := maxAbsDiff(pair[0], pair[1]); d > 1e-10 {
				t.Fatalf("%+v: %s diverges by %v", circ.Gates, name, d)
			}
		}
	})
}
