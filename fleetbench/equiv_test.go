package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"adasense/internal/loadgen"
)

// TestTransportEquivalence drives one seeded 8-device fleet through
// HTTP/JSON, ADSP over raw TCP and ADSP over WebSocket against a real
// gateway and requires the three to agree exactly: every device's
// event sequence (activity, config, config switch) and directed
// configs, the fleet accuracy and the mean sensor current.
func TestTransportEquivalence(t *testing.T) {
	bin := gatewayBinary(t)
	var first *fleetTrace
	for _, transport := range []string{transportHTTP, transportTCP, transportWS} {
		got := driveFleet(t, bin, transport)
		t.Logf("%s: %d events, accuracy %.4f, sensor current %.3f µA", transport, got.events, got.accuracy, got.currentUA)
		if first == nil {
			first = got
			if got.events == 0 {
				t.Fatal("no events returned")
			}
			continue
		}
		for id, seq := range first.sequences {
			if !reflect.DeepEqual(got.sequences[id], seq) {
				t.Errorf("%s: device %s diverges from %s:\n got %v\nwant %v", transport, id, transportHTTP, got.sequences[id], seq)
			}
		}
		if got.accuracy != first.accuracy || got.currentUA != first.currentUA {
			t.Errorf("%s: accuracy %v, current %v µA; %s gave %v, %v µA",
				transport, got.accuracy, got.currentUA, transportHTTP, first.accuracy, first.currentUA)
		}
	}
}

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// gatewayBinary builds adasense-gateway from the enclosing checkout once
// per test binary.
func gatewayBinary(t *testing.T) string {
	if testing.Short() {
		t.Skip("builds and runs the gateway binary")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fleetbench-test")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "adasense-gateway")
		build := exec.Command("go", "build", "-o", buildBin, "./cmd/adasense-gateway")
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building the gateway: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildBin != "" {
		os.RemoveAll(filepath.Dir(buildBin))
	}
	os.Exit(code)
}

type fleetTrace struct {
	sequences           map[string][]string
	events              int
	accuracy, currentUA float64
}

// driveFleet pushes 24 rounds of the seed-7 fleet through a fresh
// gateway over one transport, closed loop, checking every reply.
func driveFleet(t *testing.T, bin, transport string) *fleetTrace {
	const token, rounds = "equivalence", 24
	fleet, err := newFleet(7, 8, 8, loadgen.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := startGateway(bin, filepath.Join(t.TempDir(), "gateway.log"), token, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := g.stop(); err != nil {
			t.Errorf("%s: %v", transport, err)
		}
	}()
	conns := make([]*conn, len(fleet))
	for i, d := range fleet {
		if err := d.encodeBodies(transport, token); err != nil {
			t.Fatal(err)
		}
		if transport != transportHTTP || i == 0 {
			if conns[i], err = dial(transport, g.addr, g.streamAddr); err != nil {
				t.Fatal(err)
			}
		} else {
			conns[i] = conns[0]
		}
		open := conns[i].open
		if transport != transportHTTP {
			open = conns[i].hello
		}
		cfg, err := open(d.id, token)
		if err == nil {
			err = d.startSession(cfg)
		}
		if err != nil {
			t.Fatalf("%s: opening %s: %v", transport, d.id, err)
		}
	}
	ft := &fleetTrace{sequences: map[string][]string{}}
	var tl tally
	for round := 0; round < rounds; round++ {
		for i, d := range fleet {
			k, cfg := d.k, d.cfg
			var rp reply
			err := conns[i].push(d.bodies[k][cfg], &rp, &spanTimes{}, time.Now())
			if err == nil {
				err = d.accept(&rp)
			}
			if err != nil {
				t.Fatalf("%s: %s round %d: %v", transport, d.id, round, err)
			}
			tl.count(d, k, cfg, &rp)
			for _, ev := range rp.events {
				ft.sequences[d.id] = append(ft.sequences[d.id], fmt.Sprintf("%v/%s/%v", ev.activity, ev.cfg.Name(), ev.changed))
			}
			ft.sequences[d.id] = append(ft.sequences[d.id], "→"+rp.cfg.Name())
		}
	}
	for i, c := range conns {
		if transport == transportHTTP {
			if i == 0 {
				c.close()
			}
			continue
		}
		if err := c.goodbye(); err != nil {
			t.Errorf("%s: goodbye: %v", transport, err)
		}
	}
	ft.events = tl.events
	ft.accuracy = float64(tl.correct) / float64(tl.events)
	ft.currentUA = tl.currentSum / float64(rounds*len(fleet))
	return ft
}
