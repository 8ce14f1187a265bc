package dist

import (
	"io"
	"strings"
	"testing"

	"repro/internal/qsim"
)

// TestMalformedHelloRejected drives a worker session in memory with
// handshakes whose circuit passes the size caps but not qsim's structural
// validation. Each used to reach compilation and panic the worker process;
// each must now be refused with an error frame, and a valid handshake on the
// same session must still be acknowledged.
func TestMalformedHelloRejected(t *testing.T) {
	circ := qsim.BasicEntangling.Build(2, 2).WithReupload()
	prog := qsim.CompileProgram(circ)
	valid := func() helloMsg {
		return helloMsg{
			Version: ProtoVersion, Name: circ.Name, NumQubits: circ.NumQubits,
			Layers: circ.Layers, Reupload: circ.Reupload, NumParams: circ.NumParams,
			Gates: append([]qsim.Gate(nil), circ.Gates...), LayerStarts: circ.LayerStarts(),
			Digest: prog.Digest(),
		}
	}
	cnot := -1
	for i, g := range circ.Gates {
		if g.Kind == qsim.CNOT {
			cnot = i
			break
		}
	}
	if cnot < 0 || circ.Gates[0].Kind == qsim.CNOT {
		t.Fatal("test circuit needs a rotation first and a CNOT")
	}
	cases := []struct {
		name   string
		mangle func(*helloMsg)
	}{
		{"negative rotation parameter", func(m *helloMsg) { m.Gates[0].P = -7 }},
		{"rotation parameter past NumParams", func(m *helloMsg) { m.Gates[0].P = m.NumParams }},
		{"negative CNOT control", func(m *helloMsg) { m.Gates[cnot].C = -7 }},
		{"CNOT control equals target", func(m *helloMsg) { m.Gates[cnot].C = m.Gates[cnot].Q }},
		{"CNOT with a parameter", func(m *helloMsg) { m.Gates[cnot].P = 0 }},
		{"rotation with a control", func(m *helloMsg) { m.Gates[0].C = 1 }},
		{"unknown gate kind", func(m *helloMsg) { m.Gates[0].Kind = 9 }},
		{"negative NumParams", func(m *helloMsg) { m.NumParams = -1 }},
		{"negative layer start", func(m *helloMsg) { m.LayerStarts[0] = -1 }},
		{"decreasing layer starts", func(m *helloMsg) { m.LayerStarts[0], m.LayerStarts[1] = m.LayerStarts[1], 0 }},
		{"layer start past the gates", func(m *helloMsg) { m.LayerStarts[1] = len(m.Gates) + 5 }},
		{"re-upload layers without starts", func(m *helloMsg) { m.LayerStarts = m.LayerStarts[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			toWorkerR, toWorkerW := io.Pipe()
			fromWorkerR, fromWorkerW := io.Pipe()
			done := make(chan error, 1)
			go func() { done <- ServeConn(toWorkerR, fromWorkerW) }()

			hm := valid()
			tc.mangle(&hm)
			if err := writeFrame(toWorkerW, fHello, encodeHello(hm)); err != nil {
				t.Fatal(err)
			}
			typ, body, err := readFrame(fromWorkerR)
			if err != nil {
				t.Fatal(err)
			}
			if typ != fError {
				t.Fatalf("worker replied frame type %d to a malformed handshake, want fError", typ)
			}
			em, err := decodeError(body)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(em.Msg, "refusing circuit") {
				t.Fatalf("error %q does not refuse the circuit", em.Msg)
			}

			if err := writeFrame(toWorkerW, fHello, encodeHello(valid())); err != nil {
				t.Fatal(err)
			}
			typ, body, err = readFrame(fromWorkerR)
			if err != nil {
				t.Fatal(err)
			}
			if typ != fHelloAck {
				t.Fatalf("worker replied frame type %d to a valid handshake after a refusal, want fHelloAck", typ)
			}
			if ack, err := decodeHelloAck(body); err != nil || ack.Digest != prog.Digest() {
				t.Fatalf("bad ack %+v (err %v)", ack, err)
			}
			toWorkerW.Close()
			if err := <-done; err != nil {
				t.Fatalf("worker session ended with error: %v", err)
			}
		})
	}
}
