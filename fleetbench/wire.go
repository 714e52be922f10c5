package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"time"

	"adasense/internal/sensor"
	"adasense/internal/stream"
	"adasense/internal/synth"
)

// The wire transports a workload can speak.
const (
	transportHTTP = "http" // HTTP/1.1 + JSON, keep-alive
	transportWS   = "ws"   // ADSP over the WebSocket at GET /v1/stream
	transportTCP  = "tcp"  // ADSP over the raw -stream-addr listener
)

// ioTimeout bounds every exchange, so a wedged gateway fails the run
// instead of hanging it.
const ioTimeout = 10 * time.Second

// event is one classification tick of a reply, transport-neutral.
type event struct {
	activity synth.Activity
	cfg      sensor.Config
	changed  bool
}

// reply is one decoded push acknowledgement: the completed events and
// the config the device must sample at from now on.
type reply struct {
	cfg    sensor.Config
	events []event
}

// spanTimes are the client-side marks of one push, as offsets from the
// run epoch: write start, write end, first reply byte, reply parsed.
// The push's spans are gen.queue (due→sent), wire.write (sent→wrote),
// wire.wait (wrote→first) and wire.read (first→done).
type spanTimes struct{ sent, wrote, first, done time.Duration }

// conn is one client connection to the gateway. It is not safe for
// concurrent use: a push is written, then its reply is read.
type conn struct {
	transport string
	rwc       io.ReadWriteCloser
	deadline  func(time.Time) error
	br        *bufio.Reader
	rd        *stream.Reader // ADSP transports
	seq       uint64
	ack       stream.EventsMsg
	wbuf      []byte
	body      bytes.Buffer // HTTP response body scratch
}

// dial opens a connection of the given transport: httpAddr serves
// HTTP and the WebSocket upgrade, streamAddr the raw-TCP ADSP door.
func dial(transport, httpAddr, streamAddr string) (*conn, error) {
	c := &conn{transport: transport}
	ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
	defer cancel()
	switch transport {
	case transportWS:
		ws, err := stream.DialWS(ctx, "ws://"+httpAddr+"/v1/stream")
		if err != nil {
			return nil, err
		}
		c.rwc = ws
		c.deadline = func(t time.Time) error {
			if err := ws.SetWriteDeadline(t); err != nil {
				return err
			}
			return ws.SetReadDeadline(t)
		}
	default:
		addr := httpAddr
		if transport == transportTCP {
			addr = streamAddr
		}
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		c.rwc = nc
		c.deadline = nc.SetDeadline
	}
	c.br = bufio.NewReaderSize(c.rwc, 64<<10)
	c.rd = stream.NewReader(c.br)
	return c, nil
}

func (c *conn) close() { c.rwc.Close() }

// hello runs the ADSP handshake for a session id and returns the
// config the welcome directs.
func (c *conn) hello(session, token string) (sensor.Config, error) {
	c.deadline(time.Now().Add(ioTimeout))
	c.wbuf = stream.AppendFrame(c.wbuf[:0], stream.FrameHello,
		stream.AppendHello(nil, stream.Hello{Device: session, Token: token}))
	if _, err := c.rwc.Write(c.wbuf); err != nil {
		return sensor.Config{}, err
	}
	f, err := c.rd.Next()
	if err != nil {
		return sensor.Config{}, err
	}
	if f.Type != stream.FrameWelcome {
		return sensor.Config{}, frameError(f)
	}
	w, err := stream.DecodeWelcome(f.Payload)
	return w.Config, err
}

// goodbye ends an ADSP session cleanly and closes the connection.
func (c *conn) goodbye() error {
	c.wbuf = stream.AppendFrame(c.wbuf[:0], stream.FrameGoodbye,
		stream.AppendGoodbye(nil, stream.Goodbye{Code: stream.CodeOK}))
	_, err := c.rwc.Write(c.wbuf)
	if cerr := c.rwc.Close(); err == nil {
		err = cerr
	}
	return err
}

// frameError describes an unexpected ADSP frame in an exchange.
func frameError(f stream.Frame) error {
	switch f.Type {
	case stream.FrameError:
		e, err := stream.DecodeError(f.Payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("gateway refused batch %d: %s (%s)", e.Seq, e.Msg, e.Code)
	case stream.FrameGoodbye:
		g, err := stream.DecodeGoodbye(f.Payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("gateway closed the stream: %s (%s)", g.Msg, g.Code)
	}
	return fmt.Errorf("unexpected %s frame", f.Type)
}

// openJSON is the gateway's reply to an HTTP session open.
type openJSON struct {
	ID     string `json:"id"`
	Config string `json:"config"`
}

// open opens an HTTP session and returns the config it starts at.
func (c *conn) open(session, token string) (sensor.Config, error) {
	body, _ := json.Marshal(struct {
		ID string `json:"id"`
	}{session})
	status, raw, err := c.roundTrip(httpRequest("POST", "/v1/sessions", token, body), &spanTimes{}, time.Now())
	if err != nil {
		return sensor.Config{}, err
	}
	if status != http.StatusCreated {
		return sensor.Config{}, fmt.Errorf("open %s: HTTP %d: %s", session, status, raw)
	}
	var o openJSON
	if err := json.Unmarshal(raw, &o); err != nil {
		return sensor.Config{}, fmt.Errorf("open %s: %w", session, err)
	}
	return sensor.ParseConfig(o.Config)
}

// roundTrip writes one pre-rendered HTTP request and reads the reply.
// The returned body aliases c's scratch buffer until the next call.
func (c *conn) roundTrip(req []byte, st *spanTimes, epoch time.Time) (int, []byte, error) {
	c.deadline(time.Now().Add(ioTimeout))
	st.sent = time.Since(epoch)
	if _, err := c.rwc.Write(req); err != nil {
		return 0, nil, err
	}
	st.wrote = time.Since(epoch)
	if _, err := c.br.Peek(1); err != nil {
		return 0, nil, err
	}
	st.first = time.Since(epoch)
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// pushResponseJSON is the gateway's HTTP push reply.
type pushResponseJSON struct {
	Events []struct {
		Activity      string  `json:"activity"`
		Confidence    float64 `json:"confidence"`
		Config        string  `json:"config"`
		ConfigChanged bool    `json:"config_changed"`
	} `json:"events"`
	Config string `json:"config"`
}

var activityByName = func() map[string]synth.Activity {
	m := make(map[string]synth.Activity, synth.NumActivities)
	for a := synth.Activity(0); int(a) < synth.NumActivities; a++ {
		m[a.String()] = a
	}
	return m
}()

// push sends one pre-encoded batch body and decodes its reply into rp.
func (c *conn) push(body []byte, rp *reply, st *spanTimes, epoch time.Time) error {
	rp.events = rp.events[:0]
	if c.transport == transportHTTP {
		return c.pushHTTP(body, rp, st, epoch)
	}
	return c.pushADSP(body, rp, st, epoch)
}

func (c *conn) pushHTTP(req []byte, rp *reply, st *spanTimes, epoch time.Time) error {
	status, raw, err := c.roundTrip(req, st, epoch)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("push: HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	var pr pushResponseJSON
	if err := json.Unmarshal(raw, &pr); err != nil {
		return fmt.Errorf("push reply: %w", err)
	}
	if rp.cfg, err = sensor.ParseConfig(pr.Config); err != nil {
		return fmt.Errorf("push reply config: %w", err)
	}
	for _, ev := range pr.Events {
		a, ok := activityByName[ev.Activity]
		if !ok {
			return fmt.Errorf("push reply: unknown activity %q", ev.Activity)
		}
		cfg, err := sensor.ParseConfig(ev.Config)
		if err != nil {
			return fmt.Errorf("push reply event config: %w", err)
		}
		rp.events = append(rp.events, event{activity: a, cfg: cfg, changed: ev.ConfigChanged})
	}
	st.done = time.Since(epoch)
	return nil
}

// pushADSP stamps the next sequence number into the pre-encoded batch
// frame, re-seals its checksum and exchanges it for the events ack.
func (c *conn) pushADSP(frame []byte, rp *reply, st *spanTimes, epoch time.Time) error {
	c.seq++
	n := len(frame)
	binary.LittleEndian.PutUint64(frame[stream.HeaderLen:], c.seq)
	binary.LittleEndian.PutUint32(frame[n-stream.TrailerLen:],
		crc32.ChecksumIEEE(frame[stream.HeaderLen:n-stream.TrailerLen]))
	c.deadline(time.Now().Add(ioTimeout))
	st.sent = time.Since(epoch)
	if _, err := c.rwc.Write(frame); err != nil {
		return err
	}
	st.wrote = time.Since(epoch)
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	st.first = time.Since(epoch)
	for {
		f, err := c.rd.Next()
		if err != nil {
			return err
		}
		switch f.Type {
		case stream.FrameEvents:
			if err := c.ack.Decode(f.Payload); err != nil {
				return err
			}
			if c.ack.Seq != c.seq {
				return fmt.Errorf("events ack for batch %d, sent %d", c.ack.Seq, c.seq)
			}
			rp.cfg = c.ack.Config
			for _, ev := range c.ack.Events {
				if int(ev.Activity) >= synth.NumActivities {
					return fmt.Errorf("events ack: activity index %d out of range", ev.Activity)
				}
				rp.events = append(rp.events, event{activity: synth.Activity(ev.Activity), cfg: ev.Config, changed: ev.ConfigChanged})
			}
			st.done = time.Since(epoch)
			return nil
		case stream.FramePing:
			c.wbuf = stream.AppendFrame(c.wbuf[:0], stream.FramePong, f.Payload)
			if _, err := c.rwc.Write(c.wbuf); err != nil {
				return err
			}
		case stream.FrameConfig:
			// A config push between acks; the ack that follows carries
			// the directed config again.
		default:
			return frameError(f)
		}
	}
}
