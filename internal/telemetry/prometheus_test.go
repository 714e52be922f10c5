package telemetry

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

func TestEncoderFormat(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Counter("adasense_batches_pushed_total", "Batches accepted by sessions.", 42)
	e.Gauge("adasense_sessions_live", "Currently open sessions.", 3)
	e.Gauge("adasense_pool_hit_rate", "Pipeline pool hit rate.", 0.25)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP adasense_batches_pushed_total Batches accepted by sessions.\n" +
		"# TYPE adasense_batches_pushed_total counter\n" +
		"adasense_batches_pushed_total 42\n" +
		"# HELP adasense_sessions_live Currently open sessions.\n" +
		"# TYPE adasense_sessions_live gauge\n" +
		"adasense_sessions_live 3\n" +
		"# HELP adasense_pool_hit_rate Pipeline pool hit rate.\n" +
		"# TYPE adasense_pool_hit_rate gauge\n" +
		"adasense_pool_hit_rate 0.25\n"
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestEncoderEscapesHelp(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Counter("x_total", "line one\nback\\slash", 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if want := `# HELP x_total line one\nback\\slash` + "\n"; !strings.HasPrefix(b.String(), want) {
		t.Fatalf("HELP escaping wrong: %q", b.String())
	}
	if strings.Count(b.String(), "\n") != 3 {
		t.Fatalf("escaped newline leaked into output: %q", b.String())
	}
}

func TestEncoderNonFiniteGauges(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Gauge("nan", "", math.NaN())
	e.Gauge("pinf", "", math.Inf(1))
	e.Gauge("ninf", "", math.Inf(-1))
	out := b.String()
	for _, want := range []string{"nan NaN\n", "pinf +Inf\n", "ninf -Inf\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

// failWriter fails every write after the first n bytes requested.
type failWriter struct{ budget int }

var errSink = errors.New("sink failed")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errSink
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestEncoderStickyError(t *testing.T) {
	e := NewEncoder(&failWriter{budget: 0})
	e.Counter("a_total", "", 1)
	if e.Err() == nil {
		t.Fatal("write failure not surfaced")
	}
	e.Gauge("b", "", 2) // must be a no-op, not a panic or an overwrite
	if !errors.Is(e.Err(), errSink) {
		t.Fatalf("Err = %v, want first write error", e.Err())
	}
}

// goldenExposition renders a fixed exposition through every Encoder
// method: empty, sparse and dense histograms (counts past the
// small-integer fast paths, a label value needing escapes, an
// overflow-bin count), counter vecs, info gauges and non-finite values.
func goldenExposition() (string, error) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Counter("adasense_batches_pushed_total", "Batches accepted by sessions.", 123456789)
	e.Gauge("adasense_pool_hit_rate", "Pipeline pool hit rate.", 0.8125)
	e.Gauge("adasense_nan", "Not a number.", math.NaN())
	e.GaugeWith("adasense_build_info", "Build metadata.",
		[]Label{{Name: "version", Value: "v1 \"quoted\" \\ line\nbreak"}, {Name: "goversion", Value: "go1.24"}}, 1)
	e.CounterVec("adasense_stream_frames_in_total", "Frames by type.", "type",
		[]CounterSample{{LabelValue: "hello", V: 7}, {LabelValue: "batch", V: 1 << 40}})
	var dense HistogramSnapshot
	for i := range dense.Bins {
		dense.Bins[i] = uint64(i*i*37 + i)
		dense.Count += dense.Bins[i]
	}
	dense.SumSeconds = 12.345678901234
	var sparse HistogramSnapshot
	sparse.Bins[3], sparse.Bins[NumBuckets] = 2, 1
	sparse.Count, sparse.SumSeconds = 3, 9.0000123
	e.Histogram("adasense_stage_duration_seconds", "Stage latency.", "stage", []HistogramSeries{
		{LabelValue: "auth"},
		{LabelValue: "decode", H: dense},
		{LabelValue: "we\"ird\\", H: sparse},
	})
	return b.String(), e.Err()
}

// TestEncoderGolden pins the exposition bytes: testdata/encoder.golden
// was rendered by the strings.Builder-based encoder this buffer-reusing
// one replaced, from the same input, and must match byte for byte.
func TestEncoderGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/encoder.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := goldenExposition()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
