package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"adasense/internal/loadgen"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/stream"
	"adasense/internal/synth"
)

const (
	// batchSec is the signal time one push carries; hopSec is the
	// gateway's classification hop (a tick every second over a
	// two-second window), which fixes how many events a push completes.
	batchSec = 2.0
	hopSec   = 1.0
)

// paretoStates are the configurations the gateway can direct a device
// to; every config in a reply must be one of them.
var paretoStates = sensor.ParetoStates()

func configIndex(c sensor.Config) int {
	for i, p := range paretoStates {
		if p == c {
			return i
		}
	}
	return -1
}

// device is one synthetic wearable with its inputs generated up front:
// for every horizon batch k and every Pareto config c, batches[k][c] is
// the signal interval [k·batchSec, (k+1)·batchSec) sampled under c, and
// bodies[k][c] is that batch already encoded in the workload's wire
// format. The timed loop only picks the body matching the config the
// gateway last directed.
type device struct {
	id      string
	index   int // position in the fleet
	cohort  string
	batches [][]*sensor.Batch
	bodies  [][][]byte
	// truth[k] is the dominant ground-truth activity of batch k.
	truth []synth.Activity

	// Live state, guarded by mu: a worker holds the device for the
	// whole of its job.
	mu      sync.Mutex
	k       int // next horizon batch
	cfg     int // index of the last directed config
	pending int // samples the gateway holds towards its next tick
	lap     int // sessions opened so far (churn workloads)
	conn    *conn
}

// lapSession is the session id of a churn device's lap-th session.
func lapSession(id string, lap int) string { return id + "-" + strconv.Itoa(lap) }

// apportion splits n devices over the mix weights the way
// adasense-loadgen does: floors first, then the remainders to the
// largest fractional parts, ties broken by mix order.
func apportion(n int, mix []loadgen.Cohort) []int {
	total := 0.0
	for _, c := range mix {
		total += c.Weight
	}
	counts := make([]int, len(mix))
	fracs := make([]float64, len(mix))
	assigned := 0
	for i, c := range mix {
		exact := float64(n) * c.Weight / total
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for ; assigned < n; assigned++ {
		best := 0
		for i := range fracs {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		counts[best]++
		fracs[best] = -1
	}
	return counts
}

// newFleet builds the seeded fleet: each device's schedule, motion and
// sensor noise derive from one split of the master source, taken in
// fleet order, so the same seed yields the same inputs byte for byte.
// Devices are then sampled in parallel, each from its own source.
func newFleet(seed uint64, n, horizon int, mix []loadgen.Cohort) ([]*device, error) {
	master := rng.New(seed)
	var fleet []*device
	var sources []*rng.Source
	for ci, count := range apportion(n, mix) {
		for j := 0; j < count; j++ {
			sources = append(sources, master.Split(uint64(len(fleet))))
			fleet = append(fleet, &device{
				id:     fmt.Sprintf("fb-%s-%04d", mix[ci].Name, j),
				index:  len(fleet),
				cohort: mix[ci].Name,
			})
		}
	}
	err := forEach(fleet, func(d *device) error {
		return d.generate(sources[d.index], horizon)
	})
	return fleet, err
}

// generate samples the device's horizon under every Pareto config.
func (d *device) generate(dr *rng.Source, horizon int) error {
	sched, err := synth.CohortSchedule(d.cohort, dr, float64(horizon)*batchSec)
	if err != nil {
		return err
	}
	motion := synth.NewMotion(synth.DefaultModels(), sched, dr)
	sampler := sensor.NewSampler(sensor.DefaultNoiseModel(), dr)
	d.batches = make([][]*sensor.Batch, horizon)
	d.truth = make([]synth.Activity, horizon)
	for k := range d.batches {
		t0 := float64(k) * batchSec
		d.truth[k] = sched.DominantActivity(t0, t0+batchSec)
		d.batches[k] = make([]*sensor.Batch, len(paretoStates))
		for c, cfg := range paretoStates {
			d.batches[k][c] = sampler.Sample(motion, cfg, t0, t0+batchSec)
		}
	}
	return nil
}

// forEach runs fn over the fleet on every core and returns the first
// error.
func forEach(fleet []*device, fn func(*device) error) error {
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(fleet) && errs[w] == nil; i += len(errs) {
				errs[w] = fn(fleet[i])
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pushJSON is the gateway's HTTP push body.
type pushJSON struct {
	Config  string    `json:"config"`
	StartAt float64   `json:"start_at,omitempty"`
	X       []float64 `json:"x"`
	Y       []float64 `json:"y"`
	Z       []float64 `json:"z"`
}

// encodeBodies pre-encodes every batch of d in the transport's wire
// format: a complete HTTP/1.1 push request, or a complete ADSP batch
// frame whose sequence number and checksum are patched at send time.
func (d *device) encodeBodies(transport, token string) error {
	d.bodies = make([][][]byte, len(d.batches))
	for k, row := range d.batches {
		d.bodies[k] = make([][]byte, len(row))
		for c, b := range row {
			if transport == transportHTTP {
				js, err := json.Marshal(pushJSON{Config: b.Config.Name(), StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z})
				if err != nil {
					return err
				}
				d.bodies[k][c] = httpRequest("POST", "/v1/sessions/"+d.id+"/push", token, js)
				continue
			}
			m := stream.BatchMsg{Config: b.Config, StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z}
			frame := stream.BeginFrame(nil, stream.FrameBatch)
			frame = stream.AppendBatch(frame, &m)
			d.bodies[k][c] = stream.EndFrame(frame, 0)
		}
	}
	return nil
}

// httpRequest renders one complete HTTP/1.1 request with a bearer token.
func httpRequest(method, path, token string, body []byte) []byte {
	head := method + " " + path + " HTTP/1.1\r\n" +
		"Host: fleetbench\r\n" +
		"Authorization: Bearer " + token + "\r\n" +
		"Content-Type: application/json\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}
