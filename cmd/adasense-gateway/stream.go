package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"adasense"
	"adasense/internal/stream"
	"adasense/internal/telemetry"
)

// streamServer is the ADSP streaming ingress over the same gateway the
// HTTP surface serves: one persistent connection per device, carried
// over a WebSocket upgraded at GET /v1/stream or over the raw TCP
// listener behind -stream-addr (both transports run the identical
// session loop — ADSP frames are self-delimiting, so the loop only
// needs an ordered byte stream).
//
// Per connection the steady state allocates nothing: frames decode
// through one stream.Reader into reused message structs, replies are
// built in place in a reused write buffer, and each push runs on the
// connection's own goroutine, exactly as an HTTP push runs on its
// request's. ADSP acknowledges each batch before the device sends the
// next, so one in-flight batch per connection is the only bound a
// stream needs. Frame-payload decode is the "decode" stage of the
// latency histograms. docs/streaming.md is the protocol reference.
type streamServer struct {
	s   *server
	tel *telemetry.StreamCounters

	// mu guards conns and closed: Shutdown says goodbye to every live
	// connection exactly once, and connections arriving after shutdown
	// are refused at the door. live counts the connections admitted
	// through the door until their handlers return, so Shutdown returns
	// only once every one is closed and counted closed.
	mu     sync.Mutex
	conns  map[*streamConn]struct{}
	closed bool
	live   sync.WaitGroup
}

// streamConn is one live ADSP connection's server-side state.
type streamConn struct {
	rwc io.ReadWriteCloser

	// wmu serializes frame writes (the session loop with Shutdown's
	// goodbye); wbuf is the reused frame-encoding buffer.
	wmu  sync.Mutex
	wbuf []byte
}

func newStreamServer(s *server) *streamServer {
	return &streamServer{
		s:     s,
		tel:   &telemetry.StreamCounters{},
		conns: make(map[*streamConn]struct{}),
	}
}

// handleWS is the GET /v1/stream route: WebSocket upgrade, then the
// ADSP session loop on the hijacked connection. The route skips the
// auth and observe middlewares deliberately — auth is in-band (the
// hello frame carries the bearer token, shared with the raw-TCP
// transport), and the request trace/latency machinery is per-request
// where a stream is one connection serving thousands of pushes; the
// stream's own counters and stage histograms cover it instead.
func (ss *streamServer) handleWS(w http.ResponseWriter, r *http.Request) {
	conn, err := stream.UpgradeHTTP(w, r)
	if err != nil {
		return // UpgradeHTTP already answered the request
	}
	ss.ServeConn(conn)
}

// Serve accepts raw-TCP ADSP connections (-stream-addr) until the
// listener closes.
func (ss *streamServer) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go ss.ServeConn(conn)
	}
}

// ServeConn runs one connection's full ADSP lifetime and closes it.
func (ss *streamServer) ServeConn(rwc io.ReadWriteCloser) {
	c := &streamConn{rwc: rwc}
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		ss.writeGoodbye(c, stream.CodeDraining, "gateway draining")
		rwc.Close()
		return
	}
	ss.conns[c] = struct{}{}
	ss.live.Add(1)
	ss.mu.Unlock()
	ss.tel.ConnOpened()
	defer func() {
		ss.mu.Lock()
		delete(ss.conns, c)
		ss.mu.Unlock()
		ss.tel.ConnClosed()
		rwc.Close()
		ss.live.Done()
	}()
	ss.serve(c)
}

// Shutdown refuses new connections, says goodbye to every live one,
// and returns once every connection handler — and with it every
// in-flight push — has exited. Called on the signal path before
// Gateway.Drain so devices see a clean draining close instead of
// pushes failing against closing sessions.
func (ss *streamServer) Shutdown() {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	conns := make([]*streamConn, 0, len(ss.conns))
	for c := range ss.conns {
		conns = append(conns, c)
	}
	ss.mu.Unlock()
	for _, c := range conns {
		ss.writeGoodbye(c, stream.CodeDraining, "gateway draining")
		c.rwc.Close() // unblocks the session loop's blocking read
	}
	ss.live.Wait()
}

// serve runs the handshake and session loop for one connection.
func (ss *streamServer) serve(c *streamConn) {
	gw, cluster := ss.s.gw, ss.s.cluster
	rd := stream.NewReader(c.rwc)

	// Handshake: exactly one hello first.
	f, err := rd.Next()
	if err != nil {
		return
	}
	ss.tel.FrameIn(uint8(f.Type))
	if f.Type != stream.FrameHello {
		ss.writeGoodbye(c, stream.CodeProtocol, "expected hello frame")
		return
	}
	hello, err := stream.DecodeHello(f.Payload)
	if err != nil {
		ss.writeGoodbye(c, stream.CodeProtocol, err.Error())
		return
	}
	start := time.Now()
	authorized := gw.Authorize(hello.Token)
	gw.ObserveStage(telemetry.StageAuth, time.Since(start))
	if !authorized {
		ss.writeGoodbye(c, stream.CodeUnauthorized, "missing or invalid bearer token")
		return
	}
	if hello.Device == "" {
		ss.writeGoodbye(c, stream.CodeProtocol, "hello needs a device id")
		return
	}
	if gw.Draining() {
		ss.writeGoodbye(c, stream.CodeDraining, "gateway draining")
		return
	}
	device := hello.Device

	// Ring routing: unlike the HTTP surface the stream never proxies —
	// a persistent connection pinned through a middleman would pay the
	// forward hop on every push, exactly what ADSP exists to avoid. The
	// device is told its owner and re-dials there.
	if !ss.redirectIfNotOwned(c, device) {
		return
	}

	// Bind the session: resume a live one, open (or adopt, on a
	// federated gateway — same cold-handoff semantics as the HTTP push
	// path) otherwise.
	sess, ok := gw.Lookup(device)
	resumed := ok
	if !ok {
		var err error
		sess, err = gw.Open(device)
		if errors.Is(err, adasense.ErrSessionExists) {
			// Lost an open race (e.g. against the device's own HTTP
			// traffic): use the winner.
			sess, ok = gw.Lookup(device)
			if !ok {
				ss.writeGoodbye(c, stream.CodeInternal, "session lost mid-open")
				return
			}
			resumed = true
			err = nil
		}
		switch {
		case err == nil:
		case errors.Is(err, adasense.ErrGatewayFull):
			ss.writeGoodbye(c, stream.CodeCapacity, err.Error())
			return
		case errors.Is(err, adasense.ErrGatewayDraining):
			ss.writeGoodbye(c, stream.CodeDraining, err.Error())
			return
		default:
			ss.writeGoodbye(c, stream.CodeInternal, err.Error())
			return
		}
	}
	// Re-check ownership now the registration is visible, mirroring
	// handleOpen: a rebalance landing mid-bind must not leave a ghost
	// session here. A session this loop minted is closed; a resumed one
	// belongs to the rebalance sweep.
	if cluster != nil && !cluster.Owns(device) {
		if !resumed {
			sess.Close()
		}
		ss.redirectIfNotOwned(c, device)
		return
	}

	lastCfg := sess.Config()
	ss.writeWelcome(c, stream.Welcome{Config: lastCfg, ModelGen: gw.ModelGeneration(), Resumed: resumed})

	// Session loop state, all reused across pushes: the batch and batch
	// wrapper decode in place and the ack encodes in place — the
	// steady-state push path allocates nothing on this side of the
	// feature pipeline.
	var batch stream.BatchMsg
	var ack stream.EventsMsg
	var ab adasense.Batch

	for {
		f, err := rd.Next()
		if err != nil {
			// Encoding errors get a reason before the close; a vanished
			// peer (EOF or transport failure) gets silence.
			switch {
			case errors.Is(err, stream.ErrFrameTooLarge):
				ss.writeGoodbye(c, stream.CodeTooLarge, err.Error())
			case errors.Is(err, stream.ErrBadVersion):
				ss.writeGoodbye(c, stream.CodeVersion, err.Error())
			case errors.Is(err, stream.ErrBadMagic), errors.Is(err, stream.ErrBadFlags),
				errors.Is(err, stream.ErrBadType), errors.Is(err, stream.ErrBadChecksum):
				ss.writeGoodbye(c, stream.CodeProtocol, err.Error())
			}
			return
		}
		ss.tel.FrameIn(uint8(f.Type))
		switch f.Type {
		case stream.FrameBatch:
			start := time.Now()
			if err := batch.Decode(f.Payload); err != nil {
				// The envelope CRC passed but the payload is malformed:
				// a broken encoder, not line noise. Close.
				ss.writeGoodbye(c, stream.CodeProtocol, err.Error())
				return
			}
			gw.ObserveStage(telemetry.StageDecode, time.Since(start))
			// Ownership is re-checked per push like the HTTP routed
			// middleware: a rebalance must move the device promptly, not
			// whenever it happens to reconnect.
			if !ss.redirectIfNotOwned(c, device) {
				return
			}
			ab = adasense.Batch{Config: batch.Config, StartAt: batch.StartAt, X: batch.X, Y: batch.Y, Z: batch.Z}
			pushed, err := sess.Push(&ab)
			if err != nil {
				if !ss.answerPushError(c, sess, device, batch.Seq, err) {
					return
				}
				continue
			}
			cfg := sess.Config()
			ack.Seq = batch.Seq
			ack.Config = cfg
			if cap(ack.Events) < len(pushed) {
				ack.Events = make([]stream.Event, len(pushed))
			}
			ack.Events = ack.Events[:len(pushed)]
			for i := range pushed {
				ev := &pushed[i]
				ack.Events[i] = stream.Event{
					Activity:      uint8(ev.Classification.Activity),
					Confidence:    ev.Classification.Confidence,
					Config:        ev.Config,
					ConfigChanged: ev.ConfigChanged,
				}
			}
			ss.writeEvents(c, &ack)
			lastCfg = cfg
		case stream.FramePing:
			ss.writePong(c, f.Payload)
			// Pings double as the config-push opportunity for idle
			// devices: if the directed config drifted since the last
			// frame the device saw, push the correction.
			if cfg := sess.Config(); cfg != lastCfg {
				ss.writeConfig(c, cfg)
				lastCfg = cfg
			}
		case stream.FramePong:
			// Unsolicited pongs are permitted (RFC 6455 spirit).
		case stream.FrameGoodbye:
			return
		default:
			ss.writeGoodbye(c, stream.CodeProtocol, "unexpected "+f.Type.String()+" frame")
			return
		}
	}
}

// answerPushError maps a session push failure onto the wire. It
// reports whether the connection survives: per-batch refusals answer
// with an error frame and keep serving, terminal conditions say
// goodbye.
func (ss *streamServer) answerPushError(c *streamConn, sess *adasense.GatewaySession, device string, seq uint64, err error) bool {
	switch {
	case errors.Is(err, adasense.ErrRateLimited):
		ss.writeError(c, stream.ErrorMsg{Seq: seq, Code: stream.CodeRateLimited, Config: sess.Config(), Msg: err.Error()})
		return true
	case errors.Is(err, adasense.ErrSessionClosed), errors.Is(err, adasense.ErrSessionNotFound):
		// Closed underneath the stream — usually a rebalance sweep. If
		// the ring now places the device elsewhere, say so on the way
		// out; the device re-dials the owner and resumes warm (stateful
		// handoff) or cold.
		if !ss.redirectIfNotOwned(c, device) {
			return false
		}
		ss.writeGoodbye(c, stream.CodeSessionClosed, err.Error())
		return false
	case errors.Is(err, adasense.ErrGatewayDraining):
		ss.writeGoodbye(c, stream.CodeDraining, err.Error())
		return false
	default:
		// Config mismatch and the like: refuse the batch, direct the
		// config the device must resample at (self-healing).
		ss.writeError(c, stream.ErrorMsg{Seq: seq, Code: stream.CodeBadBatch, Config: sess.Config(), Msg: err.Error()})
		return true
	}
}

// redirectIfNotOwned reports whether the device belongs on this
// replica. If not, it names the owner in a redirect frame and says
// goodbye with CodeRedirect; the caller returns.
func (ss *streamServer) redirectIfNotOwned(c *streamConn, device string) bool {
	cluster := ss.s.cluster
	if cluster == nil {
		return true
	}
	owner, local := cluster.Route(device)
	if local {
		return true
	}
	ss.tel.RedirectSent()
	ss.writeRedirect(c, stream.Redirect{ReplicaID: owner.ID, ReplicaURL: owner.URL})
	ss.writeGoodbye(c, stream.CodeRedirect, "device is owned by "+owner.ID)
	return false
}

// sendFrame seals and writes a frame whose payload was appended to
// c.wbuf by the caller (between begin and here), under the write lock.
func (c *streamConn) sendFrame() error {
	buf := stream.EndFrame(c.wbuf, 0)
	c.wbuf = buf
	_, err := c.rwc.Write(buf)
	return err
}

func (ss *streamServer) writeWelcome(c *streamConn, w stream.Welcome) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FrameWelcome)
	c.wbuf = stream.AppendWelcome(c.wbuf, w)
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FrameWelcome))
	}
}

func (ss *streamServer) writeEvents(c *streamConn, m *stream.EventsMsg) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FrameEvents)
	c.wbuf = stream.AppendEvents(c.wbuf, m)
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FrameEvents))
	}
}

func (ss *streamServer) writeConfig(c *streamConn, cfg adasense.Config) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FrameConfig)
	c.wbuf = stream.AppendConfig(c.wbuf, cfg)
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FrameConfig))
	}
}

func (ss *streamServer) writePong(c *streamConn, payload []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FramePong)
	c.wbuf = append(c.wbuf, payload...)
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FramePong))
	}
}

func (ss *streamServer) writeError(c *streamConn, e stream.ErrorMsg) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FrameError)
	c.wbuf = stream.AppendError(c.wbuf, e)
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FrameError))
	}
}

func (ss *streamServer) writeRedirect(c *streamConn, r stream.Redirect) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FrameRedirect)
	c.wbuf = stream.AppendRedirect(c.wbuf, r)
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FrameRedirect))
	}
}

func (ss *streamServer) writeGoodbye(c *streamConn, code stream.CloseCode, msg string) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stream.BeginFrame(c.wbuf[:0], stream.FrameGoodbye)
	c.wbuf = stream.AppendGoodbye(c.wbuf, stream.Goodbye{Code: code, Msg: msg})
	if c.sendFrame() == nil {
		ss.tel.FrameOut(uint8(stream.FrameGoodbye))
	}
}

// writeMetrics appends the adasense_stream_* series to a /metrics
// exposition — the streaming counterpart of Gateway.WriteMetrics,
// emitted by handleMetrics after the gateway's own series.
func (ss *streamServer) writeMetrics(e *telemetry.Encoder) {
	snap := ss.tel.Snapshot()
	e.Counter("adasense_stream_connections_total",
		"ADSP stream connections accepted since process start.", snap.ConnsOpened)
	e.Gauge("adasense_stream_connections",
		"ADSP stream connections currently live.", float64(snap.ConnsLive))
	frames := func(counts [telemetry.NumFrameTypes]uint64) []telemetry.CounterSample {
		samples := make([]telemetry.CounterSample, 0, int(stream.FrameGoodbye))
		for t := stream.FrameHello; t <= stream.FrameGoodbye; t++ {
			samples = append(samples, telemetry.CounterSample{LabelValue: t.String(), V: counts[t]})
		}
		return samples
	}
	e.CounterVec("adasense_stream_frames_in_total",
		"Decoded inbound ADSP frames by type.", "type", frames(snap.FramesIn))
	e.CounterVec("adasense_stream_frames_out_total",
		"Written outbound ADSP frames by type.", "type", frames(snap.FramesOut))
	e.Counter("adasense_stream_redirects_total",
		"Stream connections redirected to the device's owning replica.", snap.Redirects)
}
