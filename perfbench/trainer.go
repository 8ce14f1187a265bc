package main

import (
	"fmt"
	"math"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dual"
	"repro/internal/maxwell"
	"repro/internal/nn"
	"repro/internal/opt"
)

// trainer runs core.TrainModel's step body one step at a time, so the
// benchmark can time each step and wrap every layer call in a span. The
// arithmetic is the same call sequence as TrainModel's loop; the checks
// compare the two bit for bit.
type trainer struct {
	e      *env
	model  *core.Model
	tcfg   core.TrainConfig
	tp     *ad.Tape
	adam   *opt.Adam
	curr   *maxwell.TimeCurriculum
	fwd    maxwell.Forward
	tr     *tracer
	epoch  int
	names  []string // span name per model layer
	nodes  int      // tape nodes of the last step
	losses []float64
}

// newTrainer prepares a cold-start trainer for model. wrap, when non-nil,
// wraps the benchmark's forward closure (the tests inject faults with it).
func newTrainer(e *env, model *core.Model, tcfg core.TrainConfig, tr *tracer, wrap func(maxwell.Forward) maxwell.Forward) *trainer {
	t := &trainer{
		e: e, model: model, tcfg: tcfg, tr: tr,
		tp:   ad.NewTape(),
		adam: opt.NewAdam(tcfg.Schedule.LR0, model.Reg.Buffers(), model.Reg.Grads),
		curr: maxwell.NewTimeCurriculum(tcfg.TimeBins, tcfg.Kappa),
	}
	for _, l := range model.Layers {
		t.names = append(t.names, layerSpan(l))
	}
	t.fwd = t.forward
	if wrap != nil {
		t.fwd = wrap(t.fwd)
	}
	return t
}

func layerSpan(l nn.Layer) string {
	switch l.(type) {
	case *nn.Periodic:
		return "nn.periodic"
	case *nn.RFF:
		return "nn.rff"
	case *nn.Dense:
		return "nn.dense"
	case *nn.Quantum:
		return "nn.quantum"
	case *nn.Trig:
		return "nn.trig"
	}
	return fmt.Sprintf("nn.%T", l)
}

// forward is core.Model.Forward with a span around each layer's Forward.
func (t *trainer) forward(tp *ad.Tape, coords []float64, n int, withTangents bool) maxwell.FieldsDual {
	s := t.tr.begin("nn.forward")
	x := dual.FromValue(tp.Leaf(n, 3, coords, false))
	if withTangents {
		for k := 0; k < 3; k++ {
			tan := make([]float64, n*3)
			for i := 0; i < n; i++ {
				tan[i*3+k] = 1
			}
			x.T[k] = tp.Const(n, 3, tan)
		}
	}
	for i, l := range t.model.Layers {
		ls := t.tr.begin(t.names[i])
		x = l.Forward(tp, x)
		t.tr.end(ls)
	}
	f := maxwell.Split(tp, x)
	t.tr.end(s)
	return f
}

// step runs one training step and returns its total loss. A panic inside the
// step (a dist pass error surfaces as one) is returned as an error.
func (t *trainer) step() (loss float64, err error) {
	root := t.tr.beginStep()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step %d: %v", t.epoch, r)
			t.tr.abort()
		}
		t.epoch++
		if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			err = fmt.Errorf("step %d: non-finite loss %v", t.epoch-1, loss)
		}
		t.losses = append(t.losses, loss)
	}()
	loss = math.NaN()
	t.adam.LR = t.tcfg.Schedule.At(t.epoch)
	cfg := t.tcfg.Loss
	if !t.curr.Converged(1e-3) {
		cfg.TimeWeights = t.curr.Weights()
	}
	t.tp.Reset()
	t.model.Reg.Bind(t.tp, true)

	s := t.tr.begin("maxwell.build")
	terms := maxwell.Build(t.tp, t.fwd, t.e.problem, t.e.coll, cfg)
	t.tr.end(s)
	t.nodes = t.tp.Len()

	s = t.tr.begin("ad.backward")
	t.tp.Backward(terms.Total)
	t.tr.end(s)

	s = t.tr.begin("opt.update")
	t.model.Reg.PullGrads()
	t.adam.Step()
	t.curr.Update(terms.BinResiduals)
	t.tr.end(s)

	loss = terms.Total.Scalar()
	t.tr.end(root)
	return loss, nil
}

// evaluate is core.Evaluate's body with spans around it and around the
// forward-only EvalFields call inside it; the untraced path calls
// core.Evaluate itself.
func (t *trainer) evaluate() (l2 float64) {
	if !t.tr.on {
		l2, _ = core.Evaluate(t.model, t.e.ref)
		return l2
	}
	s := t.tr.beginOther("core.evaluate")
	f := t.tr.begin("core.eval_forward")
	ez, hx, hy := t.model.EvalFields(t.e.ref.Coords, len(t.e.ref.Ez))
	t.tr.end(f)
	l2 = t.e.ref.L2Of(ez)
	_ = diag.IBH(t.e.ref.EnergySeries(ez, hx, hy), 1)
	t.tr.end(s)
	return l2
}
