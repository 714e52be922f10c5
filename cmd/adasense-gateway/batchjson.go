package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"adasense"
)

// batchDecoder decodes the body of a push or classify request into a
// batch, reusing its buffers across requests.
//
// A body in the canonical shape clients emit — the lower-case keys
// config, start_at, x, y and z, each at most once and in any order, JSON
// whitespace, unescaped ASCII strings and numbers in the strict JSON
// grammar — is parsed in one pass without allocating. Numbers go
// through strconv.ParseFloat(s, 64), the call encoding/json makes, so
// every float is bit-identical. Any other body (unknown, escaped,
// case-variant or duplicate keys, null, non-ASCII, out-of-range
// numbers, truncation) is decoded from the same bytes by
// json.Decoder.Decode into a zeroed batchJSON, so every input succeeds
// or fails exactly as it would under encoding/json alone; like a
// json.Decoder, both paths ignore bytes after the object. FuzzBatchJSON
// holds the two paths to that contract.
//
// The decoded batch aliases the decoder's buffers and is valid until
// release. That is safe because neither a session push nor Classify
// keeps a batch's slices, the contract the ADSP ingress relies on for
// its reused messages too.
type batchDecoder struct {
	body    bytes.Buffer
	x, y, z []float64
	bj      batchJSON
	batch   adasense.Batch
}

var batchDecoders = sync.Pool{New: func() any { return new(batchDecoder) }}

// maxPooledBatchBytes caps the buffer space a pooled decoder keeps
// between requests (a 2 s batch at 100 Hz needs about 20 KB), so one
// oversized body does not stay pinned in the pool.
const maxPooledBatchBytes = 256 << 10

func getBatchDecoder() *batchDecoder { return batchDecoders.Get().(*batchDecoder) }

// release returns d to the pool; the batch it decoded must no longer
// be in use.
func (d *batchDecoder) release() {
	if d.body.Cap()+8*(cap(d.x)+cap(d.y)+cap(d.z)) > maxPooledBatchBytes {
		return
	}
	// Drop the slices a fallback decode allocated, so the pool pins
	// nothing beyond the decoder's own buffers.
	d.bj, d.batch = batchJSON{}, adasense.Batch{}
	batchDecoders.Put(d)
}

// readBatch reads body to its end and decodes it into a batch. Read and
// decode failures are wrapped as "decoding batch: ..."; a decoded body
// that is not a valid batch fails with toBatch's error.
func (d *batchDecoder) readBatch(body io.Reader) (*adasense.Batch, error) {
	d.body.Reset()
	if _, err := d.body.ReadFrom(body); err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	if err := d.decode(d.body.Bytes()); err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	if err := d.bj.toBatch(&d.batch); err != nil {
		return nil, err
	}
	return &d.batch, nil
}

// decode fills d.bj from raw: the one-pass parse when raw is in the
// canonical shape, encoding/json otherwise.
func (d *batchDecoder) decode(raw []byte) error {
	if d.decodeCanonical(raw) {
		return nil
	}
	d.bj = batchJSON{}
	return json.NewDecoder(bytes.NewReader(raw)).Decode(&d.bj)
}

// The canonical keys, as bits of the set already seen in one object.
const (
	keyConfig = 1 << iota
	keyStartAt
	keyX
	keyY
	keyZ
)

// decodeCanonical parses raw into d.bj if it is in the canonical shape
// and reports whether it was. On false d.bj is untouched.
func (d *batchDecoder) decodeCanonical(raw []byte) bool {
	s := scanner{b: raw}
	if !s.next('{') {
		return false
	}
	var bj batchJSON
	var seen uint8
	// A comma must be followed by another member: the loop re-enters at
	// the key, so a trailing comma is refused.
	for done := s.next('}'); !done; {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "config":
			var v []byte
			v, ok = s.str()
			bit, bj.Config = keyConfig, configName(v)
		case "start_at":
			bit = keyStartAt
			bj.StartAt, ok = s.num()
		case "x":
			bit = keyX
			d.x, ok = s.floats(d.x[:0])
			bj.X = d.x
		case "y":
			bit = keyY
			d.y, ok = s.floats(d.y[:0])
			bj.Y = d.y
		case "z":
			bit = keyZ
			d.z, ok = s.floats(d.z[:0])
			bj.Z = d.z
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.next(',') {
			continue
		}
		if !s.next('}') {
			return false
		}
		done = true
	}
	d.bj = bj
	return true
}

// configNames interns the Table I configuration labels, so decoding a
// batch's config allocates nothing for any label a device can be
// directed to.
var configNames = func() map[string]string {
	m := make(map[string]string)
	for _, c := range adasense.TableI() {
		m[c.Name()] = c.Name()
	}
	return m
}()

func configName(b []byte) string {
	if name, ok := configNames[string(b)]; ok {
		return name
	}
	return string(b)
}

// scanner walks the canonical subset of JSON. Each method reports false
// as soon as the input leaves that subset, whether or not it is valid
// JSON; the caller then falls back to encoding/json.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	return s.accept(c)
}

// accept consumes c if it is the very next byte.
func (s *scanner) accept(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// num scans a number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it as
// encoding/json does for a float64 field.
func (s *scanner) num() (float64, bool) {
	s.ws()
	start := s.i
	s.accept('-')
	if !s.accept('0') && s.digits() == 0 {
		return 0, false
	}
	if s.accept('.') && s.digits() == 0 {
		return 0, false
	}
	if s.accept('e') || s.accept('E') {
		if !s.accept('+') {
			s.accept('-')
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// floats scans an array of numbers, appending them to dst.
func (s *scanner) floats(dst []float64) ([]float64, bool) {
	if !s.next('[') {
		return dst, false
	}
	if s.next(']') {
		return dst, true
	}
	for {
		f, ok := s.num()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
		if !s.next(',') {
			return dst, s.next(']')
		}
	}
}
