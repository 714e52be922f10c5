package telemetry

import "sync/atomic"

// NumFrameTypes sizes the per-frame-type counter arrays, indexed by
// the raw ADSP frame type byte (internal/stream's FrameType constants,
// currently 0x01..0x0A — 16 leaves headroom for protocol growth
// without a telemetry change). The arrays are indexed by wire byte
// rather than a translated enum so the stream layer records frames
// with one bounds check and no mapping table; internal/stream's tests
// assert every frame type fits.
const NumFrameTypes = 16

// StreamCounters is the streaming ingress's counter set, the ADSP
// sibling of Counters: connection lifecycle, frames by type and
// direction, and ring redirects. The zero value is ready to use;
// StreamCounters must not be copied after first use. Owned by whichever
// layer runs the stream listeners (the gateway command), and exported
// on /metrics as the adasense_stream_* series.
type StreamCounters struct {
	connsOpened atomic.Uint64
	connsClosed atomic.Uint64
	framesIn    [NumFrameTypes]atomic.Uint64
	framesOut   [NumFrameTypes]atomic.Uint64
	redirects   atomic.Uint64
}

// ConnOpened records one accepted stream connection (any transport).
func (c *StreamCounters) ConnOpened() { c.connsOpened.Add(1) }

// ConnClosed records one stream connection ending, however it ended.
func (c *StreamCounters) ConnClosed() { c.connsClosed.Add(1) }

// FrameIn records one decoded inbound frame of the given raw type.
func (c *StreamCounters) FrameIn(typ uint8) {
	if typ < NumFrameTypes {
		c.framesIn[typ].Add(1)
	}
}

// FrameOut records one written outbound frame of the given raw type.
func (c *StreamCounters) FrameOut(typ uint8) {
	if typ < NumFrameTypes {
		c.framesOut[typ].Add(1)
	}
}

// RedirectSent records one device redirected to its ring owner.
func (c *StreamCounters) RedirectSent() { c.redirects.Add(1) }

// StreamSnapshot is a point-in-time copy of the stream counter set.
// FramesIn/FramesOut are indexed by raw frame type byte; index 0 is
// unused (no ADSP frame type is zero).
type StreamSnapshot struct {
	ConnsOpened uint64 `json:"conns_opened"`
	ConnsClosed uint64 `json:"conns_closed"`
	// ConnsLive is the derived gauge: opened minus closed.
	ConnsLive uint64 `json:"conns_live"`

	FramesIn  [NumFrameTypes]uint64 `json:"frames_in"`
	FramesOut [NumFrameTypes]uint64 `json:"frames_out"`
	Redirects uint64                `json:"redirects"`
}

// Snapshot returns a copy of the current counter values, with the same
// per-field atomicity contract as Counters.Snapshot.
func (c *StreamCounters) Snapshot() StreamSnapshot {
	// Closed is read before opened so a connection landing between the
	// two loads cannot make the derived live gauge go negative.
	closed := c.connsClosed.Load()
	s := StreamSnapshot{
		ConnsOpened: c.connsOpened.Load(),
		ConnsClosed: closed,
		Redirects:   c.redirects.Load(),
	}
	if s.ConnsOpened >= s.ConnsClosed {
		s.ConnsLive = s.ConnsOpened - s.ConnsClosed
	}
	for i := range s.FramesIn {
		s.FramesIn[i] = c.framesIn[i].Load()
		s.FramesOut[i] = c.framesOut[i].Load()
	}
	return s
}
