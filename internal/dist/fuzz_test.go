package dist

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/qsim"
)

// TestOversizedFrameHeaderBoundedAlloc is the regression test for the
// pre-handshake allocation: a 4-byte header declaring a 1 GiB frame, with no
// body behind it, used to make readFrameInto allocate the declared size
// before reading a byte. It must fail with an error and allocate only what
// the bytes actually received justify.
func TestOversizedFrameHeaderBoundedAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var buf []byte
	_, _, err := readFrameInto(bytes.NewReader([]byte{0x00, 0x00, 0x00, 0x40}), &buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no body was accepted as a frame")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("header-only 1 GiB frame allocated %d bytes, want < 4 MiB", alloc)
	}
}

// TestFrameReadAcrossSteps round-trips frames larger than one readFrameInto
// growth step, so the stepwise body read reassembles them exactly, and
// checks a body cut short inside a later step is an error.
func TestFrameReadAcrossSteps(t *testing.T) {
	payload := make([]byte, 2*readStep+12345)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var wire bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := writeFrame(&wire, fShard, payload); err != nil {
			t.Fatal(err)
		}
	}
	full := append([]byte(nil), wire.Bytes()...)
	var buf []byte
	for i := 0; i < 2; i++ {
		typ, body, err := readFrameInto(&wire, &buf)
		if err != nil || typ != fShard || !bytes.Equal(body, payload) {
			t.Fatalf("frame %d: type %d, %d bytes, err %v", i, typ, len(body), err)
		}
	}
	buf = nil
	if _, _, err := readFrameInto(bytes.NewReader(full[:5+readStep+100]), &buf); err == nil {
		t.Fatal("a frame truncated inside its second read step was accepted")
	}
}

// FuzzReadFrame: the frame reader and every frame decoder are total over
// arbitrary bytes — each frame either decodes or returns an error, never a
// panic, a hang or an allocation beyond what the input pays for — and what
// a decoder accepts re-encodes to a stable layout.
func FuzzReadFrame(f *testing.F) {
	for _, c := range goldenCodecCases() {
		frame := c.got
		if !c.frame {
			var b bytes.Buffer
			if err := writeFrame(&b, c.typ, c.got); err != nil {
				f.Fatal(err)
			}
			frame = b.Bytes()
		}
		f.Add(frame)
	}
	circ := qsim.StronglyEntangling.Build(2, 1)
	prog := qsim.CompileProgram(circ)
	hello := helloMsg{
		Version: ProtoVersion, Name: circ.Name, NumQubits: circ.NumQubits,
		Layers: circ.Layers, NumParams: circ.NumParams, Gates: circ.Gates,
		LayerStarts: circ.LayerStarts(), Digest: prog.Digest(),
	}
	for _, m := range []struct {
		typ     byte
		payload []byte
	}{
		{fHello, encodeHello(hello)},
		{fHelloAck, encodeHelloAck(helloAckMsg{Version: ProtoVersion, Digest: prog.Digest()})},
		{fResult, encodeResult(resultMsg{Pass: 4, Shard: 2, Backward: true, DAngles: []float64{0.5}, DTheta: []float64{1, 2}})},
		{fError, encodeError(errorMsg{Msg: "boom"})},
	} {
		var b bytes.Buffer
		if err := writeFrame(&b, m.typ, m.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{0x00, 0x00, 0x00, 0x40})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			typ, body, err := readFrameInto(r, &buf)
			if err != nil {
				return
			}
			enc, ok := reencodeFrame(typ, body)
			if !ok {
				continue
			}
			again, ok := reencodeFrame(typ, enc)
			if !ok {
				t.Fatalf("frame type %d: re-encoded payload %x does not decode", typ, enc)
			}
			if !bytes.Equal(enc, again) {
				t.Fatalf("frame type %d: layout unstable across a decode/encode round trip:\n%x\n%x", typ, enc, again)
			}
		}
	})
}

// reencodeFrame decodes body with the decoder for frame type typ and, when
// it decodes, returns the canonical re-encoded payload.
func reencodeFrame(typ byte, body []byte) ([]byte, bool) {
	switch typ {
	case fHello:
		m, err := decodeHello(body)
		return encodeHello(m), err == nil
	case fHelloAck:
		m, err := decodeHelloAck(body)
		return encodeHelloAck(m), err == nil
	case fPass:
		m, err := decodePass(body)
		return encodePass(m), err == nil
	case fShard:
		m, err := decodeShard(body)
		return encodeShard(m), err == nil
	case fResult:
		m, err := decodeResult(body)
		return encodeResult(m), err == nil
	case fShardBatch:
		var a f64Arena
		shards, span, err := decodeShardBatchInto(body, &a, nil)
		if err != nil {
			return nil, false
		}
		// An empty batch carries its pass id only in the header, which the
		// decoder stamps into entries; with no entries it has nowhere to go.
		var pass uint64
		if len(shards) > 0 {
			pass = shards[0].Pass
		}
		return frameBody(encodeShardBatchFrame(nil, pass, span, shards)), true
	case fResultBatch:
		var a f64Arena
		results, spans, err := decodeResultBatchInto(body, &a, nil, nil)
		if err != nil {
			return nil, false
		}
		var pass uint64
		var backward bool
		if len(results) > 0 {
			pass, backward = results[0].Pass, results[0].Backward
		}
		return frameBody(encodeResultBatchFrame(nil, pass, backward, results, spans)), true
	case fError:
		m, err := decodeError(body)
		return encodeError(m), err == nil
	}
	return nil, false
}
