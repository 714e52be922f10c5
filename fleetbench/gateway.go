package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// drainTimeout is the gateway's -drain-timeout: after SIGTERM it must
// exit 0 within this long, or the run fails.
const drainTimeout = 5 * time.Second

// gatewayProc is one adasense-gateway process under test.
type gatewayProc struct {
	cmd        *exec.Cmd
	addr       string // HTTP listener (and the WebSocket door)
	streamAddr string // raw-TCP ADSP listener
	logPath    string
	done       chan struct{} // closed once the process has exited
	waitErr    error
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startGateway launches the gateway on free ports with bearer auth on
// and returns once /healthz answers 200, reporting how long that took:
// process start, startup model training, listeners up.
func startGateway(bin, logPath, token string, extra []string) (*gatewayProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	streamAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	args := append([]string{"-addr", addr, "-stream-addr", streamAddr,
		"-drain-timeout", drainTimeout.String()}, extra...)
	cmd := exec.Command(bin, args...)
	// The token travels in the environment, not argv.
	cmd.Env = append(os.Environ(), "ADASENSE_TOKEN="+token)
	cmd.Stdout, cmd.Stderr = logf, logf
	g := &gatewayProc{cmd: cmd, addr: addr, streamAddr: streamAddr, logPath: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		g.waitErr = cmd.Wait()
		close(g.done)
	}()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case <-g.done:
			return nil, 0, fmt.Errorf("gateway exited during startup (%v): %s", g.waitErr, g.logTail())
		default:
		}
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return g, time.Since(start), nil
		}
	}
	g.kill()
	return nil, 0, fmt.Errorf("gateway not healthy within 60s: %s", g.logTail())
}

// stop sends SIGTERM and waits for the drain. It fails unless the
// gateway exits 0 within its drain timeout (plus a second of slack for
// process teardown).
func (g *gatewayProc) stop() error {
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-g.done:
	case <-time.After(drainTimeout + time.Second):
		g.kill()
		return fmt.Errorf("gateway did not exit within %v of SIGTERM", drainTimeout)
	}
	if g.waitErr != nil {
		return fmt.Errorf("gateway exit: %v: %s", g.waitErr, g.logTail())
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (g *gatewayProc) kill() {
	g.cmd.Process.Kill()
	<-g.done
}

func (g *gatewayProc) logTail() string {
	b, _ := os.ReadFile(g.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// cpuTime returns the gateway's CPU time so far, all threads.
func (g *gatewayProc) cpuTime() (time.Duration, error) {
	return processCPU(g.cmd.Process.Pid)
}

// processCPU reads a process's CPU clock (pid 0: this process): the
// scheduler's exact run time summed over its threads, which leaves out
// hypervisor steal (CONFIG_PARAVIRT_TIME_ACCOUNTING). /proc/<pid>/stat
// samples the same quantity at the timer tick, too coarsely for the
// short bursts a serving process runs in.
func processCPU(pid int) (time.Duration, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = uintptr(^pid<<3 | 2) // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func (g *gatewayProc) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", g.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scraper reads the gateway's /metrics over its own connection.
type scraper struct {
	hc  *http.Client
	url string
}

func newScraper(addr string) *scraper {
	return &scraper{
		hc:  &http.Client{Timeout: ioTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url: "http://" + addr + "/metrics",
	}
}

// scrape fetches and parses one exposition, returning its latency and
// size alongside the samples.
func (s *scraper) scrape(ctx context.Context) (metricSet, time.Duration, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	ms, err := parseMetrics(string(body))
	return ms, dur, len(body), err
}

func (s *scraper) close() { s.hc.CloseIdleConnections() }

// metricSet maps a Prometheus series (name plus rendered labels, as
// exposed) to its sample value.
type metricSet map[string]float64

// parseMetrics parses a text exposition. Comments are skipped; every
// other line must be "series value".
func parseMetrics(text string) (metricSet, error) {
	ms := metricSet{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q", line)
		}
		ms[line[:i]] = v
	}
	return ms, nil
}

// delta returns after−before for one series (0 when absent).
func delta(before, after metricSet, series string) float64 {
	return after[series] - before[series]
}

// meanDelta returns the mean of a histogram's observations between two
// scrapes, in microseconds, and how many there were.
func meanDelta(before, after metricSet, name, label string) (us float64, n float64) {
	n = delta(before, after, name+"_count{"+label+"}")
	if n == 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum{"+label+"}") / n * 1e6, n
}
