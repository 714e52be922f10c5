package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adasense/internal/sensor"
)

// latencyLimit is the push latency the rate search holds. A step
// passes when its median push latency stays within it and at most 1%
// of its pushes fail. A backlog that grows raises the median past the
// limit once the offered rate exceeds capacity by 2·limit/step length
// (about 1% for the 1.1 s steps of a 25 s run), so the median also
// guards the backlog. The
// limit is not applied at p99: a 2-vCPU guest wakes a sleeping thread
// more than 5 ms late several times a second even when idle, and a
// 20–50 ms stall near capacity takes hundreds of milliseconds to drain,
// so a p99 limit at this scale fails at any rate at random.
const latencyLimit = 5 * time.Millisecond

// abortLag ends a rate-search step once an offer is sent this late: the
// backlog is then far past anything the step could recover from.
const abortLag = 250 * time.Millisecond

// rec is one offered push: its due time and client spans, as offsets
// from the run epoch. A push's id is its global offer index.
type rec struct {
	due  time.Duration
	span spanTimes
	ok   bool
}

// tally accumulates one worker's outcomes; phases merge them.
type tally struct {
	pushes, failed  int
	events, correct int
	configChanges   int
	currentSum      float64 // µA, one term per push
	dialSum         time.Duration
	dials           int
	failures        []string
}

func (t *tally) add(o *tally) {
	t.pushes += o.pushes
	t.failed += o.failed
	t.events += o.events
	t.correct += o.correct
	t.configChanges += o.configChanges
	t.currentSum += o.currentSum
	t.dialSum += o.dialSum
	t.dials += o.dials
	for _, f := range o.failures {
		if len(t.failures) < 10 {
			t.failures = append(t.failures, f)
		}
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// phase is one open-loop pacing phase: n offers at rate per second,
// offer i due at start + i/rate, whatever became of earlier offers. An
// offer that finds every connection busy queues; none is shed.
type phase struct {
	rate  float64
	first int // global index of the phase's first offer
	n     int
	start time.Duration // epoch offset of offer 0's due time
	// search marks a rate-search step, which stops early once it has
	// failed: more than 1% of its offers failed, or one was sent
	// abortLag late.
	search bool

	recs   []rec
	mu     sync.Mutex // guards next
	next   int        // next job to hand out
	errors atomic.Int64
	stop   atomic.Bool
	tally
}

func (ph *phase) due(i int) time.Duration {
	return ph.start + time.Duration(float64(i)*float64(time.Second)/ph.rate)
}

// runPhase paces ph across the workers and waits for every offer to
// resolve.
func (r *run) runPhase(ph *phase) {
	ph.recs = make([]rec, ph.n)
	ph.start = time.Since(r.epoch) + 20*time.Millisecond
	var wg sync.WaitGroup
	tallies := make([]tally, r.workers)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.work(ph, w, &tallies[w])
		}(w)
	}
	wg.Wait()
	for i := range tallies {
		ph.add(&tallies[i])
	}
}

// A job is the unit a worker takes: one offer on persistent sessions,
// or one whole connection session of sessionLen offers on churn
// workloads. Churn sessions run workers at a time, interleaved: block
// b of workers·sessionLen offers holds sessions b·workers … b·workers +
// workers−1, and session w of the block takes every workers-th offer
// from offset w, so every connection stays busy.
func (r *run) blockLen() int {
	if r.w.sessionLen > 0 {
		return r.workers * r.w.sessionLen
	}
	return 1
}

// sessionOf maps a global offer index to its churn session and
// whether the offer is that session's first.
func (r *run) sessionOf(g int) (s int, first bool) {
	within := g % r.blockLen()
	return g/r.blockLen()*r.workers + within%r.workers, within < r.workers
}

// deviceFor maps a global offer index to its device: round-robin over
// the fleet, by offer on persistent workloads and by session on churn.
func (r *run) deviceFor(g int) *device {
	if r.w.sessionLen > 0 {
		g, _ = r.sessionOf(g)
	}
	return r.fleet[g%len(r.fleet)]
}

// work is one connection worker. Jobs are handed out in offer order
// and the worker takes the job's device before releasing the hand-out
// lock, so each device's pushes run in offer order and its input
// sequence is a pure function of the seed.
func (r *run) work(ph *phase, w int, t *tally) {
	// Pacing sleeps in nanosleep on a locked thread with a 1 ns timer
	// slack: the runtime timer rounds sub-millisecond sleeps up to a
	// millisecond, which would be measured as send lag.
	// Best effort: without it the wake-ups are 50 µs coarser.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	jobs := ph.n
	if r.w.sessionLen > 0 {
		jobs /= r.w.sessionLen
	}
	for {
		ph.mu.Lock()
		j := ph.next
		if ph.stop.Load() || j >= jobs {
			ph.mu.Unlock()
			return
		}
		ph.next++
		first := j
		if r.w.sessionLen > 0 {
			first = j/r.workers*r.blockLen() + j%r.workers
		}
		d := r.deviceFor(ph.first + first)
		d.mu.Lock()
		ph.mu.Unlock()
		if r.w.sessionLen > 0 {
			r.runSession(ph, d, first, t)
		} else {
			r.offer(ph, w, d, first, t)
		}
		d.mu.Unlock()
	}
}

const prSetTimerSlack = 29

// sleepUntil blocks until the epoch offset due.
func (r *run) sleepUntil(due time.Duration) {
	for {
		wait := due - time.Since(r.epoch)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// offer performs offer i of ph on a persistent session.
func (r *run) offer(ph *phase, w int, d *device, i int, t *tally) {
	c := d.conn
	if r.w.transport == transportHTTP {
		c = r.httpConns[w]
	}
	r.sleepUntil(ph.due(i))
	r.pushOne(ph, c, d, i, t)
}

// runSession performs the churn session whose first offer is lo as one
// short connection session: dial → hello under a fresh session id →
// sessionLen pushes, every workers-th offer → goodbye. The device
// dials when its first batch is due, so the handshake is part of that
// push's latency.
func (r *run) runSession(ph *phase, d *device, lo int, t *tally) {
	hi := lo + r.workers*r.w.sessionLen
	r.sleepUntil(ph.due(lo))
	start := time.Since(r.epoch)
	c, err := dial(r.w.transport, r.gw.addr, r.gw.streamAddr)
	if err == nil {
		d.lap++
		var cfg sensor.Config
		if cfg, err = c.hello(lapSession(d.id, d.lap), r.token); err == nil {
			err = d.startSession(cfg)
		}
		if err != nil {
			c.close()
		}
	}
	if err != nil {
		for i := lo; i < hi; i += r.workers {
			ph.recs[i].due = ph.due(i)
			t.pushes++
			t.fail("dial %s: %v", d.id, err)
			ph.noteError()
		}
		return
	}
	t.dialSum += time.Since(r.epoch) - start
	t.dials++
	for i := lo; i < hi && !ph.stop.Load(); i += r.workers {
		r.sleepUntil(ph.due(i))
		r.pushOne(ph, c, d, i, t)
	}
	if err := c.goodbye(); err != nil {
		t.fail("goodbye %s: %v", d.id, err)
	}
}

// pushOne sends the device's next batch under its directed config,
// checks the reply and records the outcome as offer i of ph.
func (r *run) pushOne(ph *phase, c *conn, d *device, i int, t *tally) {
	rc := &ph.recs[i]
	rc.due = ph.due(i)
	k, cfg := d.k, d.cfg
	if ph.search && time.Since(r.epoch)-rc.due > abortLag {
		ph.stop.Store(true)
	}
	var rp reply
	err := c.push(d.bodies[k][cfg], &rp, &rc.span, r.epoch)
	if err == nil {
		err = d.accept(&rp)
	}
	t.pushes++
	if err != nil {
		t.fail("push %s batch %d: %v", d.id, k, err)
		ph.noteError()
		return
	}
	rc.ok = true
	t.count(d, k, cfg, &rp)
}

// count scores an accepted reply to batch k pushed under Pareto config
// cfg: events against the batch's dominant ground truth, and the sensor
// current of the config the device sampled at.
func (t *tally) count(d *device, k, cfg int, rp *reply) {
	for _, ev := range rp.events {
		t.events++
		if ev.activity == d.truth[k] {
			t.correct++
		}
		if ev.changed {
			t.configChanges++
		}
	}
	t.currentSum += powerModel.CurrentUA(paretoStates[cfg])
}

func (ph *phase) noteError() {
	if ph.search && ph.errors.Add(1) > int64(ph.n/100) {
		ph.stop.Store(true)
	}
}

// phaseStats summarizes a completed phase.
type phaseStats struct {
	issued   int     // offers sent (a stopped search step sends fewer than n)
	p50, p99 float64 // ms, due → reply parsed, successful pushes
	// winP50 and winP99 are the medians, over the phase's one-second
	// windows, of each window's p50 and p99: a burst of host steal in a
	// minority of seconds does not move them.
	winP50, winP99 float64
	samples        int
	lagP99         float64    // ms, due → write start
	backlogEnd     int        // offers due by the phase's nominal end but not yet sent then
	spanMeans      [4]float64 // µs: gen.queue, wire.write, wire.wait, wire.read
	passed         bool
}

func (ph *phase) stats() phaseStats {
	var s phaseStats
	lat := make([]float64, 0, ph.n)
	lag := make([]float64, 0, ph.n)
	end := ph.due(ph.n)
	var spans [4]time.Duration
	for i := range ph.recs {
		rc := &ph.recs[i]
		if rc.span.sent == 0 {
			continue
		}
		lag = append(lag, ms(rc.span.sent-rc.due))
		if rc.span.sent > end {
			s.backlogEnd++
		}
		if !rc.ok {
			continue
		}
		lat = append(lat, ms(rc.span.done-rc.due))
		spans[0] += rc.span.sent - rc.due
		spans[1] += rc.span.wrote - rc.span.sent
		spans[2] += rc.span.first - rc.span.wrote
		spans[3] += rc.span.done - rc.span.first
	}
	s.issued = ph.pushes
	s.samples = len(lat)
	var w50, w99 []float64
	for w, a := max(int(ph.rate), 1), 0; a+w <= len(lat); a += w {
		win := append([]float64(nil), lat[a:a+w]...)
		sort.Float64s(win)
		w50 = append(w50, quantile(win, 0.5))
		w99 = append(w99, quantile(win, 0.99))
	}
	s.winP50, s.winP99 = median(w50), median(w99)
	sort.Float64s(lat)
	sort.Float64s(lag)
	s.p50, s.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	s.lagP99 = quantile(lag, 0.99)
	for j := range spans {
		if s.samples > 0 {
			s.spanMeans[j] = float64(spans[j]) / 1e3 / float64(s.samples)
		}
	}
	limit := ms(latencyLimit)
	s.passed = !ph.stop.Load() && s.issued == ph.n &&
		float64(ph.failed) <= 0.01*float64(ph.n) && s.p50 <= limit
	return s
}

// quantile returns the nearest-rank q-quantile of sorted xs, or 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
