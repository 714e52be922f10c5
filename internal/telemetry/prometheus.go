package telemetry

import (
	"io"
	"strconv"
)

// Encoder writes metrics in the Prometheus text exposition format
// (version 0.0.4): for each series a # HELP line, a # TYPE line and the
// samples themselves. It is a deliberately small hand-rolled encoder —
// the serving stack exports a fixed set of counters, gauges and
// fixed-bucket histograms (labels limited to a single static pair plus
// the histogram `le`), which is the corner of the format it implements.
// Each metric family is rendered into one reused buffer and written in
// one call, so a scrape allocates next to nothing.
//
// The first write error sticks: subsequent calls are no-ops and Err
// returns it, so callers emit the whole exposition and check once.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// ContentType is the value /metrics responses declare, per the
// Prometheus exposition format spec.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Counter emits one monotonically increasing series. By Prometheus
// convention counter names end in _total.
func (e *Encoder) Counter(name, help string, v uint64) {
	if !e.header(name, help, "counter") {
		return
	}
	e.buf = append(append(e.buf, name...), ' ')
	e.buf = append(strconv.AppendUint(e.buf, v, 10), '\n')
	e.flush()
}

// Gauge emits one point-in-time series.
func (e *Encoder) Gauge(name, help string, v float64) {
	if !e.header(name, help, "gauge") {
		return
	}
	e.buf = append(append(e.buf, name...), ' ')
	e.buf = append(appendFloat(e.buf, v), '\n')
	e.flush()
}

// Label is one metric label pair. Values are escaped per the
// exposition format (backslash, double quote, newline).
type Label struct {
	Name  string
	Value string
}

// GaugeWith emits one gauge sample carrying the given labels — used for
// info-style series such as adasense_build_info, whose value is
// constant 1 and whose payload lives in the labels.
func (e *Encoder) GaugeWith(name, help string, labels []Label, v float64) {
	if !e.header(name, help, "gauge") {
		return
	}
	e.buf = append(e.buf, name...)
	for i, l := range labels {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		e.buf = appendLabel(append(e.buf, sep), l.Name, l.Value)
	}
	if len(labels) > 0 {
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(appendFloat(e.buf, v), '\n')
	e.flush()
}

// CounterSample couples one label value with its counter reading —
// one (type="batch", value) sample of a counter vec.
type CounterSample struct {
	// LabelValue is the value of the vec's label for this sample.
	LabelValue string
	V          uint64
}

// CounterVec emits one counter metric family whose samples fan out
// over a single label — the shape of the per-frame-type stream
// counters. HELP and TYPE are emitted once for the family.
func (e *Encoder) CounterVec(name, help, labelName string, samples []CounterSample) {
	if !e.header(name, help, "counter") {
		return
	}
	for _, s := range samples {
		e.sample(name, "", labelName, s.LabelValue, "")
		e.buf = append(strconv.AppendUint(e.buf, s.V, 10), '\n')
	}
	e.flush()
}

// HistogramSeries couples one label value with the distribution
// observed under it — one (route="push", snapshot) pair of a
// histogram vec.
type HistogramSeries struct {
	// LabelValue is the value of the vec's label for this series.
	LabelValue string
	H          HistogramSnapshot
}

// bucketLe holds the finite buckets' `le` label values, formatted once.
var bucketLe = func() [NumBuckets]string {
	var le [NumBuckets]string
	for i, b := range bucketBounds {
		le[i] = string(appendFloat(nil, b))
	}
	return le
}()

// Histogram emits one histogram metric family: for each series the
// cumulative `le` buckets over the fixed BucketBounds layout, the
// mandatory +Inf bucket, and the _sum and _count samples, each carrying
// labelName=LabelValue. HELP and TYPE are emitted once for the family.
func (e *Encoder) Histogram(name, help, labelName string, series []HistogramSeries) {
	if !e.header(name, help, "histogram") {
		return
	}
	for _, s := range series {
		cum := uint64(0)
		for i, le := range bucketLe {
			cum += s.H.Bins[i]
			e.sample(name, "_bucket", labelName, s.LabelValue, le)
			e.buf = append(strconv.AppendUint(e.buf, cum, 10), '\n')
		}
		// The +Inf bucket must equal _count; emit the snapshot's count so
		// the invariant holds even if an Observe landed between bin reads.
		e.sample(name, "_bucket", labelName, s.LabelValue, "+Inf")
		e.buf = append(strconv.AppendUint(e.buf, s.H.Count, 10), '\n')
		e.sample(name, "_sum", labelName, s.LabelValue, "")
		e.buf = append(appendFloat(e.buf, s.H.SumSeconds), '\n')
		e.sample(name, "_count", labelName, s.LabelValue, "")
		e.buf = append(strconv.AppendUint(e.buf, s.H.Count, 10), '\n')
	}
	e.flush()
}

// Err returns the first write error, or nil.
func (e *Encoder) Err() error { return e.err }

// appendFloat renders a float64 sample value. strconv already spells
// the IEEE specials the way the format wants: NaN, +Inf, -Inf.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscaped appends s with backslash and newline escaped, and the
// double quote too when quote is set (label values; HELP text leaves
// quotes alone), per the exposition format.
func appendEscaped(b []byte, s string, quote bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendLabel appends one name="value" pair.
func appendLabel(b []byte, name, value string) []byte {
	b = append(append(b, name...), `="`...)
	return append(appendEscaped(b, value, true), '"')
}

// sample starts one sample line of a single-label family, up to its
// value: name+suffix{labelName="value"[,le="le"]} and the separating
// space. The caller appends the value and the newline.
func (e *Encoder) sample(name, suffix, labelName, value, le string) {
	b := append(append(append(e.buf, name...), suffix...), '{')
	b = appendLabel(b, labelName, value)
	if le != "" {
		b = appendLabel(append(b, ','), "le", le)
	}
	e.buf = append(b, "} "...)
}

// header starts a metric family in the reset buffer with its # HELP
// and # TYPE preamble. It reports false once a write has failed.
func (e *Encoder) header(name, help, typ string) bool {
	if e.err != nil {
		return false
	}
	e.buf = append(append(e.buf[:0], "# HELP "...), name...)
	e.buf = appendEscaped(append(e.buf, ' '), help, false)
	e.buf = append(append(e.buf, "\n# TYPE "...), name...)
	e.buf = append(append(append(e.buf, ' '), typ...), '\n')
	return true
}

// flush writes the rendered family.
func (e *Encoder) flush() {
	_, e.err = e.w.Write(e.buf)
}
