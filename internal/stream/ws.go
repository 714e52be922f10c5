package stream

// Minimal RFC 6455 WebSocket transport for ADSP. The module is
// dependency-free, so the handshake and framing are hand-rolled over
// the stdlib — deliberately only the corner of the RFC the streaming
// ingress needs:
//
//   - server-side upgrade via http.Hijacker, client-side dial over
//     plain TCP (ws:// and http:// schemes; TLS stays the job of the
//     fleet's ingress proxy, as for the HTTP surface);
//   - binary frames only, treated as a raw byte stream: ADSP frames
//     are self-delimiting, so WebSocket message boundaries carry no
//     meaning and a WSConn is just an io.ReadWriteCloser — the ADSP
//     session loop is byte-stream transport-agnostic between raw TCP
//     and WebSocket;
//   - control frames handled inline: ping answered with pong, close
//     surfaced as io.EOF, pong skipped.

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// wsGUID is the protocol-fixed key-hashing suffix from RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket opcodes (RFC 6455 §5.2).
const (
	wsOpContinuation = 0x0
	wsOpText         = 0x1
	wsOpBinary       = 0x2
	wsOpClose        = 0x8
	wsOpPing         = 0x9
	wsOpPong         = 0xA
)

// wsMaxControlPayload bounds a control frame's payload (RFC 6455 §5.5).
const wsMaxControlPayload = 125

var errWSProtocol = errors.New("stream: websocket protocol error")

// WSConn adapts one WebSocket connection to an ordered byte stream:
// Read drains binary message payloads across frame boundaries, Write
// sends one binary frame per call. Reads and writes may run on two
// goroutines concurrently (one reader, one writer — the ADSP session
// pattern); neither side may be shared.
type WSConn struct {
	conn net.Conn
	br   *bufio.Reader
	// client marks the dialing side: its frames are masked (RFC 6455
	// §5.3) and its peer's must not be.
	client bool

	// Read state: what remains of the current data frame's payload.
	remaining int64
	masked    bool
	maskKey   [4]byte
	maskOff   int

	// Read scratch, reused across frames: header fields and control
	// payloads decode here rather than into locals, which would escape
	// through io.ReadFull and cost an allocation per frame.
	rhdr [8]byte
	ctl  [wsMaxControlPayload]byte

	// wmu serializes writes: data writes with the inline pong replies
	// the read side sends. wbuf is the reused frame-encoding buffer.
	wmu  sync.Mutex
	wbuf []byte
}

// Read reads payload bytes of the next binary (or continuation) data
// frame, handling control frames inline. A close frame — or the peer
// vanishing — surfaces as io.EOF.
func (c *WSConn) Read(p []byte) (int, error) {
	for {
		if c.remaining > 0 {
			n := len(p)
			if int64(n) > c.remaining {
				n = int(c.remaining)
			}
			n, err := c.br.Read(p[:n])
			if n > 0 {
				if c.masked {
					for i := 0; i < n; i++ {
						p[i] ^= c.maskKey[(c.maskOff+i)&3]
					}
					c.maskOff = (c.maskOff + n) & 3
				}
				c.remaining -= int64(n)
			}
			if err == io.EOF && c.remaining > 0 {
				err = io.ErrUnexpectedEOF
			}
			return n, err
		}
		if err := c.nextFrame(); err != nil {
			return 0, err
		}
	}
}

// nextFrame reads one frame header, dispatches control frames, and
// arms the read state for a data frame.
func (c *WSConn) nextFrame() error {
	h := c.rhdr[:2]
	if _, err := io.ReadFull(c.br, h); err != nil {
		if err == io.ErrUnexpectedEOF {
			return io.EOF
		}
		return err
	}
	opcode := h[0] & 0x0f
	masked := h[1]&0x80 != 0
	length := int64(h[1] & 0x7f)
	switch length {
	case 126:
		ext := c.rhdr[:2]
		if _, err := io.ReadFull(c.br, ext); err != nil {
			return err
		}
		length = int64(binary.BigEndian.Uint16(ext))
	case 127:
		ext := c.rhdr[:8]
		if _, err := io.ReadFull(c.br, ext); err != nil {
			return err
		}
		l := binary.BigEndian.Uint64(ext)
		if l > 1<<62 {
			return fmt.Errorf("%w: absurd frame length", errWSProtocol)
		}
		length = int64(l)
	}
	var key [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, c.rhdr[:4]); err != nil {
			return err
		}
		key = [4]byte(c.rhdr[:4])
	}
	// A server must refuse unmasked client frames; a client must refuse
	// masked server frames (RFC 6455 §5.1).
	if c.client == masked {
		return fmt.Errorf("%w: wrong frame masking for direction", errWSProtocol)
	}

	if opcode >= wsOpClose {
		// Control frames are short and never fragmented; consume inline.
		if length > wsMaxControlPayload {
			return fmt.Errorf("%w: oversized control frame", errWSProtocol)
		}
		payload := c.ctl[:length]
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return err
		}
		if masked {
			for i := range payload {
				payload[i] ^= key[i&3]
			}
		}
		switch opcode {
		case wsOpClose:
			// Best-effort close echo, then surface end of stream.
			c.writeFrame(wsOpClose, payload)
			return io.EOF
		case wsOpPing:
			return c.writeFrame(wsOpPong, payload)
		case wsOpPong:
			return nil
		}
		return fmt.Errorf("%w: unknown control opcode %#x", errWSProtocol, opcode)
	}

	switch opcode {
	case wsOpBinary, wsOpContinuation, wsOpText:
		c.remaining = length
		c.masked = masked
		c.maskKey = key
		c.maskOff = 0
		return nil
	}
	return fmt.Errorf("%w: unknown opcode %#x", errWSProtocol, opcode)
}

// Write sends p as one binary frame.
func (c *WSConn) Write(p []byte) (int, error) {
	if err := c.writeFrame(wsOpBinary, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeFrame writes one unfragmented frame, masking it on the client
// side. Header and payload are assembled in the reused write buffer and
// leave in a single Write — one syscall per frame, no allocation in the
// steady state.
func (c *WSConn) writeFrame(opcode byte, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := append(c.wbuf[:0], 0x80|opcode, 0) // FIN set: never fragmented
	switch {
	case len(p) < 126:
		buf[1] = byte(len(p))
	case len(p) <= 0xffff:
		buf[1] = 126
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p)))
	default:
		buf[1] = 127
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
	}
	if c.client {
		buf[1] |= 0x80
		n := len(buf)
		buf = append(append(buf, 0, 0, 0, 0), p...)
		key, body := buf[n:n+4], buf[n+4:]
		if _, err := rand.Read(key); err != nil {
			return err
		}
		for i := range body {
			body[i] ^= key[i&3]
		}
	} else {
		buf = append(buf, p...)
	}
	c.wbuf = buf
	_, err := c.conn.Write(buf)
	return err
}

// Close sends a best-effort close frame and closes the connection.
func (c *WSConn) Close() error {
	c.writeFrame(wsOpClose, nil)
	return c.conn.Close()
}

// SetReadDeadline bounds future Reads, like net.Conn.
func (c *WSConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetWriteDeadline bounds future Writes, like net.Conn.
func (c *WSConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// wsAccept computes the Sec-WebSocket-Accept value for a key.
func wsAccept(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether a comma-separated header contains the
// token, case-insensitively (Connection: keep-alive, Upgrade).
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// UpgradeHTTP performs the server side of the WebSocket handshake on
// an HTTP request and hands back the hijacked connection as a WSConn.
// On failure it writes the appropriate HTTP error response itself and
// returns the error; the caller must not touch w afterwards either
// way.
func UpgradeHTTP(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket handshake requires GET", http.StatusMethodNotAllowed)
		return nil, fmt.Errorf("%w: method %s", errWSProtocol, r.Method)
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, fmt.Errorf("%w: missing upgrade headers", errWSProtocol)
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("%w: version %q", errWSProtocol, v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, fmt.Errorf("%w: missing key", errWSProtocol)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be hijacked", http.StatusInternalServerError)
		return nil, fmt.Errorf("%w: ResponseWriter is not a Hijacker", errWSProtocol)
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack failed", http.StatusInternalServerError)
		return nil, err
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		conn.Close()
		return nil, err
	}
	if err := brw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	// Reuse the hijacked bufio.Reader: it may already hold bytes the
	// client pipelined behind the handshake.
	return &WSConn{conn: conn, br: brw.Reader}, nil
}

// DialWS dials a WebSocket endpoint ("ws://host:port/path"; "http" is
// accepted as an alias so gateway base URLs work unchanged) and
// performs the client handshake. TLS schemes are refused — like the
// fleet's HTTP surface, transport security is terminated in front of
// the gateway. The context bounds the dial and handshake.
func DialWS(ctx context.Context, rawURL string) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %q: %w", rawURL, err)
	}
	switch u.Scheme {
	case "ws", "http":
	case "wss", "https":
		return nil, fmt.Errorf("stream: dial %q: TLS is not terminated by the gateway", rawURL)
	default:
		return nil, fmt.Errorf("stream: dial %q: unsupported scheme %q", rawURL, u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
		defer conn.SetDeadline(time.Time{})
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(nonce[:])
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("stream: websocket handshake: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("stream: websocket handshake refused: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != wsAccept(key) {
		conn.Close()
		return nil, fmt.Errorf("%w: bad Sec-WebSocket-Accept", errWSProtocol)
	}
	return &WSConn{conn: conn, br: br, client: true}, nil
}
