package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"adasense"
)

// sampledBody samples secs seconds of walking at cfg and encodes it the
// way clients do, with encoding/json.
func sampledBody(tb testing.TB, cfg adasense.Config, secs float64) []byte {
	tb.Helper()
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 30}})
	if err != nil {
		tb.Fatal(err)
	}
	b := adasense.NewSampler(adasense.DefaultNoiseModel(), 32).
		Sample(adasense.NewMotion(sched, 31), cfg, 1.25, secs)
	raw, err := json.Marshal(batchJSON{Config: cfg.Name(), StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzBatchJSON holds batchDecoder to encoding/json: on every input it
// must accept and reject exactly what json.Decoder.Decode into a
// batchJSON accepts and rejects, with the same error text, and decode
// the same config, start_at and x/y/z bits. The decoder under test
// first decodes a canonical body, so state leaking from an earlier
// request into a later one shows up too.
//
// The committed seed corpus in testdata/fuzz/FuzzBatchJSON covers the
// canonical shape and the same body with extra whitespace; unknown,
// upper-case, escaped and duplicate keys; a null axis; the numbers
// 1e400, 01, +1, .5, -0 and NaN; non-ASCII and invalid-UTF-8 configs;
// trailing bytes and a trailing comma; an empty and a truncated body.
func FuzzBatchJSON(f *testing.F) {
	warm := []byte(`{"config":"F50_A16","start_at":9,"x":[1,2,3,4],"y":[5,6,7,8],"z":[9,10,11,12]}`)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var want batchJSON
		wantErr := json.NewDecoder(bytes.NewReader(raw)).Decode(&want)

		d := new(batchDecoder)
		if err := d.decode(warm); err != nil {
			t.Fatal(err)
		}
		err := d.decode(raw)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("decode(%q) = %v, encoding/json says %v", raw, err, wantErr)
		}
		if err != nil {
			return
		}
		got := d.bj
		if got.Config != want.Config || math.Float64bits(got.StartAt) != math.Float64bits(want.StartAt) {
			t.Fatalf("decode(%q) = config %q start_at %v, encoding/json says %q %v",
				raw, got.Config, got.StartAt, want.Config, want.StartAt)
		}
		for _, ax := range []struct {
			name      string
			got, want []float64
		}{{"x", got.X, want.X}, {"y", got.Y, want.Y}, {"z", got.Z, want.Z}} {
			if len(ax.got) != len(ax.want) {
				t.Fatalf("decode(%q): %d %s samples, encoding/json says %d", raw, len(ax.got), ax.name, len(ax.want))
			}
			for i := range ax.got {
				if math.Float64bits(ax.got[i]) != math.Float64bits(ax.want[i]) {
					t.Fatalf("decode(%q): %s[%d] = %v, encoding/json says %v", raw, ax.name, i, ax.got[i], ax.want[i])
				}
			}
		}
	})
}

// TestBatchDecoderCanonicalPath pins which bodies take the one-pass
// path: whatever encoding/json emits for a batch, compact or indented,
// must, or the gateway silently falls back to reflective decoding.
func TestBatchDecoderCanonicalPath(t *testing.T) {
	var d batchDecoder
	for _, cfg := range adasense.ParetoStates() {
		raw := sampledBody(t, cfg, 2)
		var indented bytes.Buffer
		if err := json.Indent(&indented, raw, "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{raw, indented.Bytes()} {
			if !d.decodeCanonical(body) {
				t.Fatalf("%s body fell back to encoding/json: %.80s...", cfg.Name(), body)
			}
		}
	}
	for _, body := range []string{
		`{"config":"F100_A128","X":[1],"y":[2],"z":[3]}`,
		`{"config":"F100_A128","x":[1],"y":[2],"z":[3],"x":[4]}`,
		`{"config":"F100_A128","x":[1],"y":[2],"z":[3],}`,
		`{"config":"F100_A128","x":[1e400],"y":[2],"z":[3]}`,
	} {
		if d.decodeCanonical([]byte(body)) {
			t.Fatalf("%s took the one-pass path", body)
		}
	}
}

// post sends body to url and returns the status and the error text of
// the response.
func post(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorJSON
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: decoding error body: %v", url, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, e.Error
}

// TestBatchRoutesShareDecoder sends the same malformed bodies to
// POST /v1/classify and POST /v1/sessions/{id}/push: both must answer
// 400 with the same error, the one encoding/json (or, for a body that
// decodes, the batch check) gives.
func TestBatchRoutesShareDecoder(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := do(t, "POST", ts.URL+"/v1/sessions", map[string]string{"id": "dev-1"}, nil); code != 201 {
		t.Fatalf("open = %d", code)
	}
	canonical := sampledBody(t, adasense.ParetoStates()[0], 1)
	for _, tc := range []struct{ name, body string }{
		{"syntax", `{nope`},
		{"empty", ``},
		{"truncated", string(canonical[:len(canonical)/2])},
		{"leading zero", `{"config":"F100_A128","x":[01],"y":[2],"z":[3]}`},
		{"overflow", `{"config":"F100_A128","x":[1e400],"y":[2],"z":[3]}`},
		{"null axis", `{"config":"F100_A128","x":null,"y":[2],"z":[3]}`},
		{"bad config", `{"config":"F9000_A1","x":[1],"y":[2],"z":[3]}`},
		{"ragged axes", `{"config":"F100_A128","x":[1,2],"y":[2],"z":[3]}`},
		{"string axis", `{"config":"F100_A128","x":["1"],"y":[2],"z":[3]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bj batchJSON
			var want string
			if err := json.NewDecoder(strings.NewReader(tc.body)).Decode(&bj); err != nil {
				want = "decoding batch: " + err.Error()
			} else if err := bj.toBatch(new(adasense.Batch)); err != nil {
				want = err.Error()
			} else {
				t.Fatalf("%s is a valid batch", tc.body)
			}
			for _, route := range []string{"/v1/classify", "/v1/sessions/dev-1/push"} {
				if code, msg := post(t, ts.URL+route, []byte(tc.body)); code != http.StatusBadRequest || msg != want {
					t.Errorf("%s = %d %q, want 400 %q", route, code, msg, want)
				}
			}
		})
	}
}

// TestBatchBodyCap: the whole push body counts against maxJSONBytes.
// Trailing whitespace after the object is ignored up to the cap, but a
// body over it is refused even though its JSON object ends well before.
func TestBatchBodyCap(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := do(t, "POST", ts.URL+"/v1/sessions", map[string]string{"id": "dev-1"}, nil); code != 201 {
		t.Fatalf("open = %d", code)
	}
	batch := sampledBody(t, adasense.ParetoStates()[0], 1)
	pad := func(n int) []byte {
		return append(append([]byte{}, batch...), bytes.Repeat([]byte{' '}, n-len(batch))...)
	}
	if code, msg := post(t, ts.URL+"/v1/sessions/dev-1/push", pad(maxJSONBytes)); code != http.StatusOK {
		t.Fatalf("push of exactly %d bytes = %d %q, want 200", maxJSONBytes, code, msg)
	}
	code, msg := post(t, ts.URL+"/v1/sessions/dev-1/push", pad(maxJSONBytes+1))
	if code != http.StatusBadRequest || !strings.Contains(msg, "request body too large") {
		t.Fatalf("push of %d bytes = %d %q, want 400 body too large", maxJSONBytes+1, code, msg)
	}
}

// BenchmarkDecodePushBody measures reading and decoding one 2 s push
// body at the sample rates of the Pareto configs F12.5 (25 samples),
// F50 (100) and F100 (200) through a pooled decoder: 0 allocs/op in
// the steady state.
func BenchmarkDecodePushBody(b *testing.B) {
	for _, name := range []string{"F12.5_A16", "F50_A16", "F100_A128"} {
		cfg, err := adasense.ParseConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		body := sampledBody(b, cfg, 2)
		b.Run(fmt.Sprintf("samples=%d", int(2*cfg.FreqHz)), func(b *testing.B) {
			rd := bytes.NewReader(body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				d := getBatchDecoder()
				if _, err := d.readBatch(rd); err != nil {
					b.Fatal(err)
				}
				d.release()
			}
		})
	}
}
