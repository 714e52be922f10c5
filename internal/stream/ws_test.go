package stream

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wsPair starts an upgrade-handling test server, dials it, and returns
// both ends of one live WebSocket connection.
func wsPair(t *testing.T) (client, server *WSConn) {
	t.Helper()
	accepted := make(chan *WSConn, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := UpgradeHTTP(w, r)
		if err != nil {
			t.Errorf("UpgradeHTTP: %v", err)
			return
		}
		accepted <- c
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialWS(ctx, ts.URL)
	if err != nil {
		t.Fatalf("DialWS: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	select {
	case s := <-accepted:
		t.Cleanup(func() { s.Close() })
		return c, s
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the upgrade")
		return nil, nil
	}
}

func TestWSAcceptRFCVector(t *testing.T) {
	// The handshake sample from RFC 6455 §1.2.
	if got := wsAccept("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("wsAccept = %q", got)
	}
}

func TestWSByteStreamBothDirections(t *testing.T) {
	c, s := wsPair(t)

	// Client -> server, spanning the 7-bit, 16-bit and 64-bit length
	// encodings; the large payloads also cross message boundaries on the
	// reading side.
	sizes := []int{1, 125, 126, 65535, 65536, 200_000}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range sizes {
			p := make([]byte, n)
			rand.Read(p)
			if _, err := c.Write(p); err != nil {
				t.Errorf("client write %d: %v", n, err)
				return
			}
			echo := make([]byte, n)
			if _, err := io.ReadFull(c, echo); err != nil {
				t.Errorf("client read %d: %v", n, err)
				return
			}
			if !bytes.Equal(echo, p) {
				t.Errorf("echo mismatch at %d bytes", n)
				return
			}
		}
		c.Close()
	}()

	// Server side: echo everything back.
	buf := make([]byte, 32*1024)
	for {
		n, err := s.Read(buf)
		if n > 0 {
			if _, werr := s.Write(buf[:n]); werr != nil {
				t.Fatalf("server write: %v", werr)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("server read: %v", err)
		}
	}
	wg.Wait()
}

func TestWSAdspOverWebSocket(t *testing.T) {
	c, s := wsPair(t)

	// An ADSP exchange over the WebSocket byte stream, exercising the
	// Reader against frames that arrive split across ws messages.
	go func() {
		data := AppendFrame(nil, FrameHello, AppendHello(nil, Hello{Device: "d", Token: "t"}))
		// Write in tiny chunks to prove frame reads span ws messages.
		for i := 0; i < len(data); i += 5 {
			end := i + 5
			if end > len(data) {
				end = len(data)
			}
			if _, err := c.Write(data[i:end]); err != nil {
				t.Errorf("chunk write: %v", err)
				return
			}
		}
	}()
	rd := NewReader(s)
	f, err := rd.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	h, err := DecodeHello(f.Payload)
	if err != nil || h.Device != "d" || h.Token != "t" {
		t.Fatalf("hello = %+v, %v", h, err)
	}
}

func TestWSCloseSurfacesEOF(t *testing.T) {
	c, s := wsPair(t)
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if _, err := s.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("server read after close = %v, want io.EOF", err)
	}
}

func TestUpgradeHTTPRejections(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := UpgradeHTTP(w, r); err == nil {
			t.Error("UpgradeHTTP accepted a non-websocket request")
		}
	}))
	defer ts.Close()

	// Plain GET: no upgrade headers.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain GET status = %d, want 400", resp.StatusCode)
	}

	// POST with upgrade headers: wrong method.
	req, _ := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(""))
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestDialWSRefusesTLS(t *testing.T) {
	ctx := context.Background()
	for _, target := range []string{"wss://example.invalid", "https://example.invalid"} {
		if _, err := DialWS(ctx, target); err == nil {
			t.Errorf("DialWS(%q) succeeded, want refusal", target)
		}
	}
}

// writeCounter is a net.Conn that counts its Write calls.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// countedPair returns both ends of a WebSocket connection over loopback
// TCP, each end's net.Conn wrapped in a writeCounter.
func countedPair(t *testing.T) (client, server *WSConn, cw, sw *writeCounter) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
		}
		accepted <- conn
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		t.FailNow()
	}
	cw, sw = &writeCounter{Conn: cc}, &writeCounter{Conn: sc}
	client = &WSConn{conn: cw, br: bufio.NewReader(cw), client: true}
	server = &WSConn{conn: sw, br: bufio.NewReader(sw)}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return client, server, cw, sw
}

// TestWSOneWritePerFrame pins the framing cost: every frame a WSConn
// sends — data frames in all three length encodings, the pong answering
// a ping, the close frame and its echo — reaches the network in exactly
// one Write, on the masked client side and on the server side alike.
func TestWSOneWritePerFrame(t *testing.T) {
	client, server, cw, sw := countedPair(t)
	type end struct {
		name string
		c    *WSConn
		w    *writeCounter
	}
	ends := [2]end{{"client", client, cw}, {"server", server, sw}}

	// Data frames, each direction.
	for i, from := range ends {
		to := ends[1-i]
		for _, n := range []int{10, 300, 70_000} {
			p := make([]byte, n)
			rand.Read(p)
			got := make([]byte, n)
			read := make(chan error, 1)
			go func() {
				_, err := io.ReadFull(to.c, got)
				read <- err
			}()
			before := from.w.writes.Load()
			if _, err := from.c.Write(p); err != nil {
				t.Fatalf("%s write %d: %v", from.name, n, err)
			}
			if err := <-read; err != nil {
				t.Fatalf("%s read %d: %v", to.name, n, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s -> %s: %d-byte payload corrupted", from.name, to.name, n)
			}
			if d := from.w.writes.Load() - before; d != 1 {
				t.Errorf("%s data frame of %d bytes took %d writes, want 1", from.name, n, d)
			}
		}
	}

	// Pong: a ping ahead of a data frame is answered inline by the
	// reading side's Read, in one write.
	for i, from := range ends {
		to := ends[1-i]
		if err := from.c.writeFrame(wsOpPing, []byte("are you there")); err != nil {
			t.Fatalf("%s ping: %v", from.name, err)
		}
		if _, err := from.c.Write([]byte{1}); err != nil {
			t.Fatalf("%s write: %v", from.name, err)
		}
		before := to.w.writes.Load()
		if _, err := io.ReadFull(to.c, make([]byte, 1)); err != nil {
			t.Fatalf("%s read: %v", to.name, err)
		}
		if d := to.w.writes.Load() - before; d != 1 {
			t.Errorf("%s pong took %d writes, want 1", to.name, d)
		}
		// Consume the pong on the pinging side, behind a data frame.
		if _, err := to.c.Write([]byte{2}); err != nil {
			t.Fatalf("%s write: %v", to.name, err)
		}
		if _, err := io.ReadFull(from.c, make([]byte, 1)); err != nil {
			t.Fatalf("%s read past pong: %v", from.name, err)
		}
	}

	// Close and its echo, closing from each side on a fresh pair.
	for _, clientCloses := range []bool{true, false} {
		client, server, cw, sw := countedPair(t)
		closer, peer := end{"client", client, cw}, end{"server", server, sw}
		if !clientCloses {
			closer, peer = peer, closer
		}
		before := closer.w.writes.Load()
		closer.c.Close()
		if d := closer.w.writes.Load() - before; d != 1 {
			t.Errorf("%s close took %d writes, want 1", closer.name, d)
		}
		before = peer.w.writes.Load()
		if _, err := peer.c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s read after close = %v, want io.EOF", peer.name, err)
		}
		if d := peer.w.writes.Load() - before; d != 1 {
			t.Errorf("%s close echo took %d writes, want 1", peer.name, d)
		}
	}
}
