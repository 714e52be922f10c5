package main

import (
	"path/filepath"
	"testing"
	"time"

	"adasense/internal/loadgen"
)

// TestOpenLoopPhase runs short open-loop phases with two workers
// against a real gateway on a persistent and a churn workload: every
// offer resolves, every reply passes the output checks, and each
// device's batches advance in order.
func TestOpenLoopPhase(t *testing.T) {
	bin := gatewayBinary(t)
	for _, w := range []workload{
		{name: "http", transport: transportHTTP, devices: 16, mix: loadgen.DefaultMix(), fixedRate: 400, horizon: 4},
		{name: "churn", transport: transportTCP, devices: 16, mix: loadgen.DefaultMix(), sessionLen: 4, fixedRate: 400, horizon: 4,
			gatewayFlags: []string{"-idle-ttl", "200ms", "-sweep", "50ms"}},
	} {
		t.Run(w.name, func(t *testing.T) {
			r := &run{w: w, seed: 3, token: "phase", workers: 2, outDir: t.TempDir()}
			fleet, err := newFleet(r.seed, w.devices, w.horizon, w.mix)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range fleet {
				if err := d.encodeBodies(w.transport, r.token); err != nil {
					t.Fatal(err)
				}
			}
			r.fleet = fleet
			g, _, err := startGateway(bin, filepath.Join(r.outDir, "gateway.log"), r.token, w.gatewayFlags)
			if err != nil {
				t.Fatal(err)
			}
			r.gw = g
			if err := r.openSessions(); err != nil {
				g.kill()
				t.Fatal(err)
			}
			r.epoch = time.Now()
			var pushed int
			for i := 0; i < 2; i++ {
				ph := r.newPhase(w.fixedRate, 0.3)
				r.runPhase(ph)
				if ph.failed > 0 || ph.pushes != ph.n {
					t.Errorf("phase %d: %d of %d pushed, %d failed: %v", i, ph.pushes, ph.n, ph.failed, ph.failures)
				}
				for j := range ph.recs {
					if !ph.recs[j].ok {
						t.Fatalf("phase %d: offer %d unresolved", i, j)
					}
				}
				pushed += ph.n
			}
			r.closeSessions()
			if err := g.stop(); err != nil {
				t.Error(err)
			}
			// Every device advanced once per offer it owns, so its batch
			// index is that count mod the horizon.
			owned := map[*device]int{}
			for g := 0; g < pushed; g++ {
				owned[r.deviceFor(g)]++
			}
			for _, d := range fleet {
				if want := owned[d] % w.horizon; d.k != want {
					t.Errorf("%s at batch %d, want %d", d.id, d.k, want)
				}
			}
		})
	}
}
