package stream

import "testing"

// benchBatch is a realistic push: 128 samples per axis at the F100
// config, the batch size one classification window needs.
func benchBatch() *BatchMsg {
	m := &BatchMsg{Seq: 1, Config: testCfg, StartAt: 0}
	m.X = make([]float64, 128)
	m.Y = make([]float64, 128)
	m.Z = make([]float64, 128)
	for i := range m.X {
		m.X[i] = float64(i) * 0.01
		m.Y[i] = float64(i) * 0.02
		m.Z[i] = float64(i) * 0.03
	}
	return m
}

// BenchmarkStreamFrameEncode measures building one batch frame into a
// reused buffer — the device-side (and ack-side) hot path. Pinned at 0
// allocs/op by scripts/bench-diff.sh.
func BenchmarkStreamFrameEncode(b *testing.B) {
	m := benchBatch()
	var buf []byte
	buf = BeginFrame(buf[:0], FrameBatch)
	buf = AppendBatch(buf, m)
	buf = EndFrame(buf, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = BeginFrame(buf[:0], FrameBatch)
		buf = AppendBatch(buf, m)
		buf = EndFrame(buf, 0)
	}
}

// BenchmarkStreamFrameDecode measures envelope validation plus batch
// payload decode into reused structs — the gateway-side hot path.
// Pinned at 0 allocs/op by scripts/bench-diff.sh.
func BenchmarkStreamFrameDecode(b *testing.B) {
	m := benchBatch()
	data := AppendFrame(nil, FrameBatch, AppendBatch(nil, m))
	var dec BatchMsg
	if err := dec.Decode(data[HeaderLen : len(data)-TrailerLen]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, err := DecodeFrame(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.Decode(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader feeds the same encoded frame forever, so the streaming
// Reader's steady state is measurable without a real peer.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkStreamReaderNext measures the full streaming decode loop —
// header read, validation, payload+CRC read into the reused buffer.
func BenchmarkStreamReaderNext(b *testing.B) {
	m := benchBatch()
	data := AppendFrame(nil, FrameBatch, AppendBatch(nil, m))
	rd := NewReader(&loopReader{data: data})
	if _, err := rd.Next(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
