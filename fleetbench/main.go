// Command fleetbench is the repository's serving benchmark. It builds
// nothing itself (run.sh builds the gateway and this load generator from the
// checkout) and drives one real adasense-gateway process open-loop
// from a single process, over at most nproc connections, with inputs
// generated from -seed before the clock starts:
//
//	fleetbench -gateway <bin> -workload http-fleet -seed 1 -seconds 25 -trace 0
//
// One run is: gateway set-up (timed five times, median reported),
// sessions opened and warm-up, one fixed-rate phase (latency, CPU,
// scrape and paper metrics), then a rate search (push_rate_max). Every
// reply is checked; the last stdout line is the JSON result, with the
// end-to-end metrics at -trace 0 and the per-layer metrics at -trace 1.
// README.md documents every metric.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"adasense/internal/loadgen"
)

// accuracyFloor is the lowest fleet accuracy a run may report and still
// count as correct. Measured fleet accuracy sits well above it on every
// workload; it catches a broken classifier or adaptation loop, not a
// percent of drift.
const accuracyFloor = 0.70

// setupRuns is how many times each run starts the gateway to time
// set-up; the median is reported.
const setupRuns = 5

// workload is one traffic mix against the gateway.
type workload struct {
	name      string
	transport string
	devices   int
	mix       []loadgen.Cohort
	// sessionLen > 0 makes every connection one short session of that
	// many pushes under a fresh session id (device id plus lap);
	// 0 keeps one long-lived session per device.
	sessionLen int
	// fixedRate is the fixed-phase offered rate, pushes/s: a sixth to
	// a third of the workload's push_rate_max on a calm 2-vCPU x86-64
	// guest, so that the phase keeps up when hypervisor steal cuts
	// capacity by half.
	fixedRate float64
	// horizon is how many batches of signal each device pre-generates
	// per config; the device's signal wraps past it.
	horizon int
	// gatewayFlags are extra gateway flags for the workload.
	gatewayFlags []string
}

var workloads = []workload{
	{
		// JSON decode and HTTP routing across 256 live sessions dominate;
		// bypasses the ADSP codec, WebSocket framing and the batcher.
		name: "http-fleet", transport: transportHTTP, devices: 256, mix: loadgen.DefaultMix(),
		fixedRate: 1000, horizon: 32,
	},
	{
		// Persistent ADSP-over-WebSocket streams of two adversarial
		// devices: framing, decode, batcher and engine with maximal
		// config churn; no JSON, no per-request routing.
		name: "stream-ws", transport: transportWS, devices: 2, mix: []loadgen.Cohort{{Name: "burst", Weight: 1}},
		fixedRate: 4500, horizon: 512,
	},
	{
		// Raw-TCP ADSP with one short session per connection: session
		// opens and background idle eviction alongside the pushes.
		name: "stream-tcp-churn", transport: transportTCP, devices: 256, mix: loadgen.DefaultMix(),
		sessionLen: 8, fixedRate: 2500, horizon: 32,
		gatewayFlags: []string{"-idle-ttl", "2s", "-sweep", "500ms"},
	},
}

func main() {
	name := flag.String("workload", "", "workload: http-fleet, stream-ws or stream-tcp-churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	gwBin := flag.String("gateway", "", "adasense-gateway binary built from this checkout")
	out := flag.String("out", ".bench_build/fleetbench", "directory for gateway logs and span dumps")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *gwBin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: fleetbench -gateway <bin> -workload <http-fleet|stream-ws|stream-tcp-churn> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	r := &run{w: *w, seed: *seed, seconds: *seconds, trace: *trace == 1, gwBin: *gwBin, outDir: *out}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	report, err := json.Marshal(map[string]any{"report": res.report})
	if err == nil {
		fmt.Println(string(report))
		report, err = json.Marshal(res.result)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(report))
}

// run is one benchmark run of one workload.
type run struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	gwBin   string
	outDir  string

	token     string
	fleet     []*device
	gw        *gatewayProc
	epoch     time.Time
	workers   int
	httpConns []*conn
	next      int // global index of the next phase's first offer

	// Persistent streams' dial → welcome times at set-up.
	openDialSum time.Duration
	openDials   int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	result result
	report map[string]any
}

func (r *run) execute() (*outcome, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	var tok [16]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return nil, err
	}
	r.token = hex.EncodeToString(tok[:])
	r.workers = min(2, runtime.NumCPU())
	report := map[string]any{"identity": identity(r.seed), "workload": r.w.name, "seconds": r.seconds, "trace": r.trace}

	genStart := time.Now()
	fleet, err := newFleet(r.seed, r.w.devices, r.w.horizon, r.w.mix)
	if err != nil {
		return nil, err
	}
	if err := forEach(fleet, func(d *device) error { return d.encodeBodies(r.w.transport, r.token) }); err != nil {
		return nil, err
	}
	r.fleet = fleet
	report["inputs_s"] = time.Since(genStart).Seconds()
	// Collect the generation garbage now rather than in a timed phase,
	// and hand it back to the host. The pre-encoded inputs are most of
	// the live heap and never become garbage, so a lower GC target
	// costs few extra cycles and keeps the process small.
	debug.FreeOSMemory()
	debug.SetGCPercent(50)

	su, err := r.setUp()
	if err != nil {
		return nil, err
	}
	defer su.scraper.close()
	defer func() {
		select {
		case <-r.gw.done:
		default:
			r.gw.kill()
		}
	}()
	report["setup_cpu_s"], report["setup_wall_s"] = su.cpu, su.wall
	problems := su.problems

	// Phases. Offer counts derive from the rate and -seconds alone, so
	// every run of a seed pushes the same inputs in the fixed phase and
	// its accuracy and sensor current repeat exactly.
	steal0 := hostSteal()
	r.epoch = time.Now()
	rate := r.w.fixedRate
	warm := r.newPhase(rate, 0.05*float64(r.seconds))
	r.runPhase(warm)
	report["warmup_send_lag_p99_ms"] = warm.stats().lagP99
	// A gateway that dies under load fails the run; the result is still
	// printed, with the reason.
	fx, err := r.runFixed(r.newPhase(rate, 0.5*float64(r.seconds)), su.scraper)
	if err != nil {
		problems = append(problems, "fixed phase: "+err.Error())
	}
	fixed, fs := fx.ph, fx.stats
	lo, hi := rate, 8*rate
	if !fs.passed {
		lo, hi = rate/8, rate
	}
	rateMax, searched, steps := r.searchRate(lo, hi)
	report["search"] = steps
	// The share of CPU time the hypervisor took from this guest while
	// the phases ran: the wall-clock figures of a run with a high share
	// are suspect.
	report["host_steal_pct"] = 100 * hostSteal().since(steal0)

	r.closeSessions()
	if err := r.gw.stop(); err != nil {
		problems = append(problems, "drain: "+err.Error())
	}

	all := tally{}
	all.add(&warm.tally)
	all.add(&fixed.tally)
	all.add(&searched)
	accuracy := float64(fixed.correct) / float64(max(fixed.events, 1))
	if accuracy < accuracyFloor {
		problems = append(problems, fmt.Sprintf("accuracy %.4f below floor %.2f", accuracy, accuracyFloor))
	}
	problems = append(problems, all.failures...)
	okPushes := float64(max(fixed.pushes-fixed.failed, 1))

	// Wall-clock figures: printed on every run, gated by none (see
	// README.md: host steal moves them by more than any bound).
	wallclock := map[string]metric{
		"push_p50_ms":   {fs.winP50, "ms"},
		"push_p99_ms":   {fs.winP99, "ms"},
		"push_rate_max": {rateMax, "1/s"},
		"scrape_p50_ms": {median(fx.scrapeMs), "ms"},
		"setup_wall_s":  {median(su.wall), "s"},
	}
	report["wallclock"] = wallclock
	report["fixed"] = map[string]any{
		"rate": rate, "offers": fixed.n, "samples": fs.samples, "p50_ms": fs.p50, "p99_ms": fs.p99,
		"window_p50_ms": fs.winP50, "window_p99_ms": fs.winP99, "send_lag_p99_ms": fs.lagP99,
		"backlog_end": fs.backlogEnd, "passed": fs.passed, "events": fixed.events, "scrapes": len(fx.scrapeMs),
	}
	report["fail_ratio"] = float64(all.failed) / float64(max(all.pushes, 1))
	report["problems"] = problems

	res := result{Correct: len(problems) == 0 && all.failed == 0, Attempted: all.pushes, Failed: all.failed}
	if !r.trace {
		res.Metrics = map[string]metric{
			"setup_s":                 {median(su.cpu), "s"},
			"gateway_cpu_us_per_push": {float64(fx.gatewayCPU.Microseconds()) / okPushes, "us"},
			"gateway_rss_mb":          {float64(fx.rss) / (1 << 20), "MB"},
			"accuracy":                {accuracy, "ratio"},
			"sensor_current_uA":       {fixed.currentSum / float64(max(fixed.pushes, 1)), "uA"},
		}
		return &outcome{result: res, report: report}, nil
	}

	layers, err := r.layerMetrics(fx, su.openUs)
	if err != nil {
		return nil, err
	}
	layers["gen.cpu_us_per_push"] = metric{float64(fx.selfCPU.Microseconds()) / okPushes, "us"}
	for k, v := range wallclock {
		layers["wallclock."+k] = v
	}
	res.Metrics = layers
	return &outcome{result: res, report: report}, nil
}

// setupResult is what set-up measured.
type setupResult struct {
	scraper   *scraper  // on the gateway left running
	cpu, wall []float64 // seconds, one per start
	openUs    float64   // mean HTTP open route, 0 when nothing opens over HTTP
	problems  []string
}

// setUp starts the gateway setupRuns times: start → first healthy
// /healthz → the workload's long-lived sessions opened. setup_s is the
// gateway's CPU time for all of it (hypervisor steal, which varies by
// minutes on a shared 2-vCPU guest, is not charged to it); the
// wall-clock times go to the report. Every start but the last is
// drained again and must exit 0; the last one stays up as r.gw.
func (r *run) setUp() (setupResult, error) {
	var su setupResult
	logPath := filepath.Join(r.outDir, "gateway-"+r.w.name+".log")
	for i := 0; i < setupRuns; i++ {
		g, wall, err := startGateway(r.gwBin, logPath, r.token, r.w.gatewayFlags)
		if err != nil {
			return su, err
		}
		r.gw, su.scraper = g, newScraper(g.addr)
		pre, _, _, err := su.scraper.scrape(context.Background())
		if err == nil {
			err = r.openSessions()
		}
		var cpu time.Duration
		if err == nil {
			cpu, err = g.cpuTime()
		}
		var post metricSet
		if err == nil {
			post, _, _, err = su.scraper.scrape(context.Background())
		}
		if err != nil {
			g.kill()
			return su, err
		}
		su.cpu = append(su.cpu, cpu.Seconds())
		su.wall = append(su.wall, wall.Seconds())
		su.openUs, _ = meanDelta(pre, post, "adasense_request_duration_seconds", `route="open"`)
		if i < setupRuns-1 {
			r.closeSessions()
			su.scraper.close()
			if err := g.stop(); err != nil {
				su.problems = append(su.problems, "set-up drain: "+err.Error())
			}
		}
	}
	return su, nil
}

// fixedRun is what the fixed-rate phase measured.
type fixedRun struct {
	ph                  *phase
	stats               phaseStats
	before, after       metricSet // /metrics around the phase
	scrapeBytes         int
	scrapeMs            []float64 // the once-a-second scrapes during the phase
	gatewayCPU, selfCPU time.Duration
	rss                 int64 // gateway peak RSS through the phase
}

// runFixed runs the fixed-rate phase with the gateway's CPU, this
// process's CPU and /metrics read around it, scraping once a second.
// The phase always runs; an error reports a reading that failed.
func (r *run) runFixed(ph *phase, sc *scraper) (*fixedRun, error) {
	fx := &fixedRun{ph: ph}
	before, _, _, errBefore := sc.scrape(context.Background())
	cpu0, errCPU := r.gw.cpuTime()
	self0 := selfCPU()
	ctx, stopScrapes := context.WithCancel(context.Background())
	scrapes := make(chan []float64, 1)
	go func() { scrapes <- r.scrapeEverySecond(ctx, sc) }()
	r.runPhase(ph)
	stopScrapes()
	fx.scrapeMs = <-scrapes
	fx.selfCPU = selfCPU() - self0
	fx.stats = ph.stats()
	if err := errors.Join(errBefore, errCPU); err != nil {
		return fx, err
	}
	cpu1, err := r.gw.cpuTime()
	if err != nil {
		return fx, err
	}
	fx.gatewayCPU = cpu1 - cpu0
	fx.before = before
	if fx.after, _, fx.scrapeBytes, err = sc.scrape(context.Background()); err != nil {
		return fx, err
	}
	// Peak RSS through the fixed phase: the rate search that follows
	// reaches a different peak load on every run.
	fx.rss, err = r.gw.peakRSS()
	return fx, err
}

// searchRate bisects offered rates in log scale between lo (assumed to
// pass) and hi (assumed to fail), each step a short open-loop phase
// judged by latencyLimit and the fail ratio, and returns the highest
// rate that passed. Host steal only ever lowers capacity, so a pass is
// conclusive while a failed step is run once more before it counts.
func (r *run) searchRate(lo, hi float64) (float64, tally, []map[string]any) {
	const decisions, retries = 6, 3
	stepSec := 0.4 * float64(r.seconds) / (decisions + retries)
	var steps []map[string]any
	var searched tally
	for i, retried := 0, 0; i < decisions; i++ {
		mid := math.Sqrt(lo * hi)
		passed := false
		for try := 0; try < 2 && !passed; try++ {
			if try == 1 {
				if retried == retries {
					break
				}
				retried++
			}
			st := r.newPhase(mid, stepSec)
			st.search = true
			r.runPhase(st)
			ss := st.stats()
			passed = ss.passed
			searched.add(&st.tally)
			steps = append(steps, map[string]any{"rate": mid, "issued": ss.issued, "p50_ms": ss.p50, "p99_ms": ss.p99,
				"send_lag_p99_ms": ss.lagP99, "passed": ss.passed})
			time.Sleep(100 * time.Millisecond)
		}
		if passed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, searched, steps
}

// newPhase sizes a phase of sec seconds at rate, continuing the global
// offer sequence; churn phases hold whole sessions.
func (r *run) newPhase(rate, sec float64) *phase {
	bl := r.blockLen()
	n := max(bl, int(math.Round(rate*sec/float64(bl)))*bl)
	ph := &phase{rate: rate, first: r.next, n: n}
	r.next += n
	return ph
}

// openSessions establishes the workload's long-lived state: HTTP
// connections plus every device's session, or each device's persistent
// stream. Churn workloads open nothing up front.
func (r *run) openSessions() error {
	switch {
	case r.w.transport == transportHTTP:
		for w := 0; w < r.workers; w++ {
			c, err := dial(transportHTTP, r.gw.addr, "")
			if err != nil {
				return err
			}
			r.httpConns = append(r.httpConns, c)
		}
		for i, d := range r.fleet {
			cfg, err := r.httpConns[i%r.workers].open(d.id, r.token)
			if err == nil {
				err = d.startSession(cfg)
			}
			if err != nil {
				return err
			}
		}
	case r.w.sessionLen == 0:
		for _, d := range r.fleet {
			start := time.Now()
			c, err := dial(r.w.transport, r.gw.addr, r.gw.streamAddr)
			if err != nil {
				return err
			}
			cfg, err := c.hello(d.id, r.token)
			r.openDialSum += time.Since(start)
			r.openDials++
			if err == nil {
				err = d.startSession(cfg)
			}
			if err != nil {
				return err
			}
			d.conn = c
		}
	}
	return nil
}

// closeSessions closes the client side before the gateway is drained:
// streams say goodbye, HTTP connections close.
func (r *run) closeSessions() {
	for _, c := range r.httpConns {
		c.close()
	}
	r.httpConns = nil
	for _, d := range r.fleet {
		if d.conn != nil {
			d.conn.goodbye()
			d.conn = nil
		}
	}
}

// scrapeEverySecond times one GET /metrics a second until ctx ends.
func (r *run) scrapeEverySecond(ctx context.Context, sc *scraper) []float64 {
	var out []float64
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case <-t.C:
			if _, d, _, err := sc.scrape(ctx); err == nil {
				out = append(out, ms(d))
			}
		}
	}
}

// cpuTicks are the aggregate CPU counters of /proc/stat.
type cpuTicks struct{ steal, total float64 }

func hostSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the steal share of all CPU time between t0 and t.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return (t.steal - t0.steal) / (t.total - t0.total)
}

// selfCPU is this process's CPU time so far, all threads.
func selfCPU() time.Duration {
	d, _ := processCPU(0)
	return d
}

// median returns the median of xs, or 0 for no samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
