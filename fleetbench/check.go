package main

import (
	"fmt"

	"adasense/internal/sensor"
)

var powerModel = sensor.DefaultPowerModel()

// startSession resets the device's view of the gateway's session state
// for a freshly opened session starting at cfg.
func (d *device) startSession(cfg sensor.Config) error {
	c := configIndex(cfg)
	if c < 0 {
		return fmt.Errorf("session starts at %v, not a Pareto config", cfg)
	}
	d.cfg, d.pending = c, 0
	return nil
}

// accept checks one push reply against what the gateway must have
// done with the batch and, if it holds, advances the device.
//
// The gateway ticks once per hop of buffered samples and stops at a
// tick that switches config, dropping the rest of the batch (those
// samples were taken under the old config). Replaying that rule over
// the device's own buffered-sample count gives the exact number of
// events the push must return; only the last may switch config, every
// event's config must be a Pareto config, and the directed config is
// the last event's config (the current one when no tick completed).
func (d *device) accept(rp *reply) error {
	cur := paretoStates[d.cfg]
	n := d.batches[d.k][d.cfg].Len()
	hop := cur.BatchSize(hopSec)
	pending, want := d.pending, 0
	next := cur
	for offset := 0; offset < n; {
		take := min(n-offset, hop-pending)
		pending += take
		offset += take
		if pending < hop {
			break
		}
		pending = 0
		want++
		if want > len(rp.events) {
			break
		}
		ev := rp.events[want-1]
		if configIndex(ev.cfg) < 0 {
			return fmt.Errorf("event %d config %v is not a Pareto config", want-1, ev.cfg)
		}
		if ev.changed != (ev.cfg != cur) {
			return fmt.Errorf("event %d: config_changed=%v but %v → %v", want-1, ev.changed, cur, ev.cfg)
		}
		next = ev.cfg
		if ev.changed {
			break
		}
	}
	if want != len(rp.events) {
		return fmt.Errorf("got %d events, want %d", len(rp.events), want)
	}
	if rp.cfg != next {
		return fmt.Errorf("directed config %v, want %v", rp.cfg, next)
	}
	d.cfg = configIndex(next)
	d.pending = pending
	d.k = (d.k + 1) % len(d.batches)
	return nil
}
