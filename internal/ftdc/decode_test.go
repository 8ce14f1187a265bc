package ftdc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// decodeBounded runs Decode on untrusted bytes and reports its error, a
// recovered panic, and the bytes it allocated.
func decodeBounded(data []byte) (err error, panicked any, allocated uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() { panicked = recover() }()
		_, err = Decode(data)
	}()
	runtime.ReadMemStats(&after)
	return err, panicked, after.TotalAlloc - before.TotalAlloc
}

// assertRejectedCheaply: a malformed dump must give an error, never a
// panic, and must not allocate on the strength of a count it cannot back.
func assertRejectedCheaply(t *testing.T, data []byte) {
	t.Helper()
	err, p, alloc := decodeBounded(data)
	if p != nil {
		t.Fatalf("Decode panicked on %d-byte input: %v", len(data), p)
	}
	if err == nil {
		t.Fatalf("Decode accepted a malformed %d-byte input", len(data))
	}
	if alloc >= 1<<20 {
		t.Fatalf("Decode allocated %d bytes on a %d-byte input before failing (%v)", alloc, len(data), err)
	}
}

// TestDecodeRejectsSchemaCountBeyondInput: a 16-byte dump whose schema
// record declares 2²⁷ names used to allocate 2 GiB before failing.
func TestDecodeRejectsSchemaCountBeyondInput(t *testing.T) {
	data := append([]byte(magic), 'S', 0)
	data = binary.AppendUvarint(data, 1<<27)
	if len(data) != 16 {
		t.Fatalf("probe is %d bytes, want 16", len(data))
	}
	assertRejectedCheaply(t, data)
}

// TestDecodeRejectsChunkCountBeyondInt: a 26-byte dump whose chunk count
// exceeds MaxInt64 used to panic in make through int(cnt).
func TestDecodeRejectsChunkCountBeyondInt(t *testing.T) {
	data := append([]byte(magic), 'S', 0, 0, 'C', 0)
	data = binary.AppendUvarint(data, 1<<63+1)
	data = append(data, 0) // empty body
	if len(data) != 26 {
		t.Fatalf("probe is %d bytes, want 26", len(data))
	}
	assertRejectedCheaply(t, data)
}

// TestDecodeRejectsChunkCountBeyondBody: a count that fits an int but not
// the body (each sample needs a time delta plus one byte per value).
func TestDecodeRejectsChunkCountBeyondBody(t *testing.T) {
	data := append([]byte(magic), 'S', 0, 2, 1, 'a', 1, 'b', 'C', 0)
	data = binary.AppendUvarint(data, 1<<40)
	data = append(data, 3, 0, 0, 0) // body of exactly one sample
	assertRejectedCheaply(t, data)
}

// encodedCapture is a small dump written by the package itself: two schema
// generations and, past chunkSamples, more than one chunk of the second.
func encodedCapture(t testing.TB) []byte {
	r := New(Options{})
	src := &fixedSource{names: []string{"b.chunks", "a.steals"}, vals: []int64{100, 0}}
	r.AddSource(src.collect)
	for i := 0; i < 5; i++ {
		r.sampleAt(at(i))
		src.vals[0] += 7
		src.vals[1] -= 300
	}
	src.names = append(src.names, "c.new")
	src.vals = append(src.vals, 1<<40)
	for i := 5; i < 5+chunkSamples+3; i++ {
		r.sampleAt(at(i))
		src.vals[2]++
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode: Decode is total over arbitrary bytes — an error or samples,
// never a panic — and what it accepts is consistent.
func FuzzDecode(f *testing.F) {
	capture := encodedCapture(f)
	if _, err := Decode(capture); err != nil {
		f.Fatalf("seed capture does not decode: %v", err)
	}
	f.Add(capture)
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := Decode(data)
		if err != nil {
			return
		}
		for i, s := range samples {
			if len(s.Vals) != len(s.Names) {
				t.Fatalf("sample %d: %d values for %d names", i, len(s.Vals), len(s.Names))
			}
		}
	})
}
