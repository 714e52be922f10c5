package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"adasense"
	"adasense/internal/stream"
)

// layerMetrics assembles the traced run's per-layer metrics: the
// fixed phase's client spans, the server's exact stage and route sums
// diffed across the phase, and the in-process replay.
func (r *run) layerMetrics(fx *fixedRun, openUs float64) (map[string]metric, error) {
	fixed, fs, before, after := fx.ph, fx.stats, fx.before, fx.after
	okPushes := float64(max(fixed.pushes-fixed.failed, 1))
	m := map[string]metric{
		"gen.send_lag_p99_ms": {fs.lagP99, "ms"},
		"gen.backlog_end":     {float64(fs.backlogEnd), "count"},
		"gen.queue_us":        {fs.spanMeans[0], "us"},
		"wire.write_us":       {fs.spanMeans[1], "us"},
		"wire.wait_us":        {fs.spanMeans[2], "us"},
		"wire.read_us":        {fs.spanMeans[3], "us"},
	}
	const req, stage = "adasense_request_duration_seconds", "adasense_stage_duration_seconds"
	route, nRoute := meanDelta(before, after, req, `route="push"`)
	auth, nAuth := meanDelta(before, after, stage, `stage="auth"`)
	extract, nExtract := meanDelta(before, after, stage, `stage="extract"`)
	classify, _ := meanDelta(before, after, stage, `stage="classify"`)
	decode, _ := meanDelta(before, after, stage, `stage="decode"`)
	admit, _ := meanDelta(before, after, stage, `stage="admit"`)
	wpp := nExtract / okPushes
	engine := (extract + classify) * wpp

	// Server time per push: the HTTP push route end to end, or the sum
	// of the stream stages. wire.residue_us is what the client waited
	// beyond it — kernel, network stack, scheduling — shown, not hidden.
	server, codecResidue := decode+admit+engine, 0.0
	if nRoute > 0 {
		server = route
		codecResidue = route - auth*nAuth/nRoute - engine
	}
	m["http.push_route_us"] = metric{route, "us"}
	m["http.codec_residue_us"] = metric{codecResidue, "us"}
	m["wire.residue_us"] = metric{fs.spanMeans[2] - server, "us"}
	m["stream.decode_us"] = metric{decode, "us"}
	m["stream.admit_us"] = metric{admit, "us"}
	coalesced := 0.0
	if batches := delta(before, after, `adasense_stream_frames_in_total{type="batch"}`); batches > 0 {
		coalesced = delta(before, after, "adasense_stream_batcher_coalesced_total") / batches
	}
	m["stream.coalesced_ratio"] = metric{coalesced, "ratio"}
	// Dial → welcome: the churn sessions of the fixed phase, else the
	// persistent streams' dials at set-up.
	dialSum, dials := fixed.dialSum, fixed.dials
	if dials == 0 {
		dialSum, dials = r.openDialSum, r.openDials
	}
	dialMs := 0.0
	if dials > 0 {
		dialMs = ms(dialSum) / float64(dials)
	}
	m["stream.dial_ms"] = metric{dialMs, "ms"}

	m["gateway.auth_us"] = metric{auth, "us"}
	m["gateway.evicted"] = metric{delta(before, after, "adasense_sessions_evicted_total"), "count"}
	hits, misses := delta(before, after, "adasense_pool_hits_total"), delta(before, after, "adasense_pool_misses_total")
	poolHit := after["adasense_pool_hit_rate"]
	if hits+misses > 0 {
		poolHit = hits / (hits + misses)
	}
	m["gateway.pool_hit_ratio"] = metric{poolHit, "ratio"}
	m["gateway.sessions_live"] = metric{after["adasense_sessions_live"], "count"}
	m["core.extract_us"] = metric{extract, "us"}
	m["core.classify_us"] = metric{classify, "us"}
	m["core.windows_per_push"] = metric{wpp, "ratio"}
	m["core.config_changes_per_kpush"] = metric{float64(fixed.configChanges) * 1000 / okPushes, "count"}
	m["telemetry.scrape_bytes"] = metric{float64(fx.scrapeBytes), "bytes"}
	m["telemetry.series"] = metric{float64(len(after)), "count"}

	rp, err := r.replay(min(fixed.n, 3000))
	if err != nil {
		return nil, err
	}
	for k, v := range rp {
		m[k] = v
	}
	// Server-side open time: the HTTP open route where the workload
	// opens over HTTP, else the replay's Gateway.Open.
	if openUs == 0 {
		openUs = rp["trace.gateway.open_us"].Value
	}
	m["gateway.open_us"] = metric{openUs, "us"}
	return m, r.dumpSpans(fixed)
}

// dumpSpans writes the fixed phase's client spans, four per push
// sharing the push id: push_id, device, span, start_ns, end_ns.
func (r *run) dumpSpans(ph *phase) error {
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.tsv", r.w.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "push_id\tdevice\tspan\tstart_ns\tend_ns")
	for i := range ph.recs {
		rc := &ph.recs[i]
		if !rc.ok {
			continue
		}
		id, dev := ph.first+i, r.deviceFor(ph.first+i).id
		s := rc.span
		for _, sp := range [4]struct {
			name   string
			lo, hi time.Duration
		}{{"gen.queue", rc.due, s.sent}, {"wire.write", s.sent, s.wrote}, {"wire.wait", s.wrote, s.first}, {"wire.read", s.first, s.done}} {
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", id, dev, sp.name, sp.lo.Nanoseconds(), sp.hi.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayCalls are the layer calls the replay times, by metric name.
var replayCalls = []string{
	"trace.stream.append_frame_us", "trace.stream.reader_next_us", "trace.stream.batch_decode_us",
	"trace.gateway.open_us", "trace.gateway.lookup_us", "trace.gateway.evict_idle_us",
	"trace.gateway.push_us", "trace.telemetry.write_metrics_us",
}

// replay runs the workload's own first n offers single-threaded through
// the layers' public functions in this process: ADSP encode and
// decode, Gateway.Open/Lookup/EvictIdle, GatewaySession.Push and
// Gateway.WriteMetrics, with a span around each call. Push self time
// excludes extract and classify, read exactly from the gateway's stage
// sums. Untraced and traced passes alternate on fresh gateways; their
// wall-time ratio is trace.overhead_ratio.
func (r *run) replay(n int) (map[string]metric, error) {
	sys, _, err := adasense.TrainSystem(adasense.TrainingConfig{Windows: 2400})
	if err != nil {
		return nil, err
	}
	// A discarded first pass warms caches and the heap; untraced and
	// traced passes then alternate.
	var wall [2]time.Duration
	var out map[string]metric
	for pass := -1; pass < 4; pass++ {
		traced := pass%2 == 1
		start := time.Now()
		m, err := r.replayPass(sys, n, traced)
		if err != nil {
			return nil, err
		}
		if pass < 0 {
			continue
		}
		wall[pass%2] += time.Since(start)
		if traced {
			out = m
		}
	}
	out["trace.overhead_ratio"] = metric{float64(wall[1]) / float64(wall[0]), "ratio"}
	return out, nil
}

type replayDevice struct {
	cfg, k, lap int
	sess        *adasense.GatewaySession
}

func (r *run) replayPass(sys *adasense.System, n int, traced bool) (m map[string]metric, err error) {
	// The replay calls into the program under test in this process; a
	// panic there is the program failing the run, reported as such.
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("replay: program panicked: %v", p)
		}
	}()
	now := time.Unix(0, 0)
	ttl := time.Duration(0)
	if r.w.sessionLen > 0 {
		ttl = 2 * time.Second
	}
	gw, err := adasense.NewGateway(sys, adasense.WithIdleTTL(ttl), adasense.WithGatewayClock(func() time.Time { return now }))
	if err != nil {
		return nil, err
	}
	sums := make(map[string]time.Duration, len(replayCalls))
	counts := make(map[string]int, len(replayCalls))
	span := func(name string, fn func() error) error {
		if !traced {
			return fn()
		}
		t := time.Now()
		err := fn()
		sums[name] += time.Since(t)
		counts[name]++
		return err
	}
	devs := make([]replayDevice, len(r.fleet))
	var frame, payload []byte
	var br bytes.Reader
	rd := stream.NewReader(&br)
	var msg stream.BatchMsg
	step := time.Duration(float64(time.Second) / r.w.fixedRate)
	nextSweep := now.Add(500 * time.Millisecond)
	stages0 := gw.Stats().Latency.Stages
	for g := 0; g < n; g++ {
		now = now.Add(step)
		d := r.deviceFor(g)
		rd0 := &devs[d.index]
		_, first := r.sessionOf(g)
		if rd0.sess == nil || (r.w.sessionLen > 0 && first) {
			rd0.lap++
			id := d.id
			if r.w.sessionLen > 0 {
				id = lapSession(d.id, rd0.lap)
			}
			if err := span("trace.gateway.open_us", func() (err error) {
				rd0.sess, err = gw.Open(id)
				return err
			}); err != nil {
				return nil, err
			}
			rd0.cfg = configIndex(rd0.sess.Config())
		}
		b := d.batches[rd0.k][rd0.cfg]
		span("trace.stream.append_frame_us", func() error {
			payload = stream.AppendBatch(payload[:0], &stream.BatchMsg{Seq: uint64(g), Config: b.Config, StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z})
			frame = stream.AppendFrame(frame[:0], stream.FrameBatch, payload)
			return nil
		})
		br.Reset(frame)
		var f stream.Frame
		if err := span("trace.stream.reader_next_us", func() (err error) {
			f, err = rd.Next()
			return err
		}); err != nil {
			return nil, err
		}
		if err := span("trace.stream.batch_decode_us", func() error { return msg.Decode(f.Payload) }); err != nil {
			return nil, err
		}
		var sess *adasense.GatewaySession
		span("trace.gateway.lookup_us", func() error {
			sess, _ = gw.Lookup(rd0.sess.ID())
			return nil
		})
		if sess == nil {
			return nil, fmt.Errorf("replay: session %s vanished", rd0.sess.ID())
		}
		var events []adasense.Event
		if err := span("trace.gateway.push_us", func() (err error) {
			events, err = sess.Push(&adasense.Batch{Config: msg.Config, StartAt: msg.StartAt, X: msg.X, Y: msg.Y, Z: msg.Z})
			return err
		}); err != nil {
			return nil, err
		}
		if len(events) > 0 {
			rd0.cfg = configIndex(events[len(events)-1].Config)
		}
		rd0.k = (rd0.k + 1) % len(d.batches)
		if now.After(nextSweep) {
			nextSweep = now.Add(500 * time.Millisecond)
			span("trace.gateway.evict_idle_us", func() error { gw.EvictIdle(); return nil })
		}
		if g%max(n/20, 1) == 0 {
			span("trace.telemetry.write_metrics_us", func() error { return gw.WriteMetrics(io.Discard) })
		}
	}
	stages1 := gw.Stats().Latency.Stages
	m = make(map[string]metric, len(replayCalls)+2)
	for _, name := range replayCalls {
		us := 0.0
		if counts[name] > 0 {
			us = float64(sums[name]) / 1e3 / float64(counts[name])
		}
		m[name] = metric{us, "us"}
	}
	var engine float64
	for _, st := range []string{"extract", "classify"} {
		sum := stages1[st].SumSeconds - stages0[st].SumSeconds
		cnt := float64(stages1[st].Count - stages0[st].Count)
		engine += sum * 1e6
		if cnt > 0 {
			m["trace.core."+st+"_us"] = metric{sum * 1e6 / cnt, "us"}
		} else {
			m["trace.core."+st+"_us"] = metric{0, "us"}
		}
	}
	if c := counts["trace.gateway.push_us"]; c > 0 {
		m["trace.gateway.push_us"] = metric{(float64(sums["trace.gateway.push_us"])/1e3 - engine) / float64(c), "us"}
	}
	return m, nil
}
