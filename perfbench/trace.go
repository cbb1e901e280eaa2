package main

import (
	"bufio"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/simaws"
)

// tracer collects the per-layer figures of a traced run. Every span and
// count is recorded by the benchmark's own code around the calls it
// makes into the program: Bus.Publish, a timestamping LogTap, a wrapping
// assertion.Registry, LocalMember.HeartbeatNow, Front.Tick and the
// member join, plus an API-call-counting simaws.FaultInjector that
// injects nothing.
type tracer struct {
	mu          sync.Mutex
	publishWall []time.Duration // Bus.Publish duration
	tapWait     []time.Duration // Publish start to the Manager's log tap
	evalSim     []time.Duration // simulated duration of each check evaluation
	heartbeats  []time.Duration
	snapBytes   []float64
	ticks       []time.Duration
	handoffs    []time.Duration
	moved       int // operations the join handed off
	queueDepth  []float64

	published sync.Map // message -> publish start (time.Time)
	evals     atomic.Int64

	apiMu    sync.Mutex
	apiCalls map[string]int64 // plane/op -> calls
}

// injector counts API calls by plane and operation and injects nothing.
func (t *tracer) injector(ctx context.Context, op string) error {
	plane := simaws.PlaneFrom(ctx)
	if plane == "" {
		plane = "operation"
	}
	t.apiMu.Lock()
	t.apiCalls[plane+"/"+op]++
	t.apiMu.Unlock()
	return nil
}

// apiTotals returns calls made by the monitoring plane and by anyone.
func (t *tracer) apiTotals() (monitoring, all int64) {
	t.apiMu.Lock()
	defer t.apiMu.Unlock()
	for k, n := range t.apiCalls {
		all += n
		if strings.HasPrefix(k, simaws.PlaneMonitoring+"/") {
			monitoring += n
		}
	}
	return monitoring, all
}

// resetAPI clears the call counts (set-up's calls are not measured).
func (t *tracer) resetAPI() {
	t.apiMu.Lock()
	t.apiCalls = map[string]int64{}
	t.apiMu.Unlock()
}

// registry wraps every check of the default registry so its Eval is
// timed in simulated time. Assertions and diagnosis tests both evaluate
// through it.
func (t *tracer) registry(clk clock.Clock) *assertion.Registry {
	def := assertion.DefaultRegistry()
	r := assertion.NewRegistry()
	for _, id := range def.IDs() {
		c, _ := def.Lookup(id)
		eval := c.Eval
		c.Eval = func(ctx context.Context, client *consistentapi.Client, p assertion.Params) assertion.Result {
			start := clk.Now()
			res := eval(ctx, client, p)
			d := clk.Since(start)
			t.evals.Add(1)
			t.mu.Lock()
			t.evalSim = append(t.evalSim, d)
			t.mu.Unlock()
			return res
		}
		r.Register(c)
	}
	return r
}

// logTap timestamps each operation event as it reaches a Manager.
func (t *tracer) logTap(in <-chan logging.Event) <-chan logging.Event {
	out := make(chan logging.Event, cap(in))
	go func() {
		defer close(out)
		for ev := range in {
			if v, ok := t.published.Load(ev.Message); ok {
				w := clock.Wall.Since(v.(time.Time))
				t.mu.Lock()
				t.tapWait = append(t.tapWait, w)
				t.mu.Unlock()
			}
			out <- ev
		}
	}()
	return out
}

// publish times one Bus.Publish.
func (t *tracer) publish(bus *logging.Bus, ev logging.Event) {
	start := clock.Wall.Now()
	t.published.Store(ev.Message, start)
	bus.Publish(ev)
	d := clock.Wall.Since(start)
	t.mu.Lock()
	t.publishWall = append(t.publishWall, d)
	t.mu.Unlock()
}

// sampleQueues records the monitor's total queue depth.
func (t *tracer) sampleQueues(m *monitor) {
	depth := 0
	for _, mgr := range m.live() {
		depth += mgr.QueueDepth().Depth()
	}
	t.mu.Lock()
	t.queueDepth = append(t.queueDepth, float64(depth))
	t.mu.Unlock()
}

// snapshotsPerHeartbeat bounds how many of a renewal's snapshots are
// serialized to measure their size, to keep the tracing overhead small.
const snapshotsPerHeartbeat = 4

// heartbeat records one HeartbeatNow and the JSON size of some of the
// snapshots the renewal replicated.
func (t *tracer) heartbeat(d time.Duration, mgr *core.Manager) {
	var sizes []float64
	sessions := mgr.Sessions()
	if len(sessions) > snapshotsPerHeartbeat {
		sessions = sessions[len(sessions)-snapshotsPerHeartbeat:] // the newest
	}
	for _, s := range sessions {
		if snap, err := mgr.ExportSession(s.ID()); err == nil {
			if b, err := json.Marshal(snap); err == nil {
				sizes = append(sizes, float64(len(b)))
			}
		}
	}
	t.mu.Lock()
	t.heartbeats = append(t.heartbeats, d)
	t.snapBytes = append(t.snapBytes, sizes...)
	t.mu.Unlock()
}

// tick times one Front.Tick.
func (t *tracer) tick(ctx context.Context, m *monitor) {
	start := clock.Wall.Now()
	m.front.Tick(ctx)
	d := clock.Wall.Since(start)
	t.mu.Lock()
	t.ticks = append(t.ticks, d)
	t.mu.Unlock()
}

// handoff records the join that rebalanced moved operations.
func (t *tracer) handoff(d time.Duration, moved int) {
	t.mu.Lock()
	t.handoffs = append(t.handoffs, d)
	t.moved += moved
	t.mu.Unlock()
}

// metricsText is one scrape of obs.Default: series -> value.
type metricsText map[string]float64

func scrapeObs() metricsText {
	m := metricsText{}
	sc := bufio.NewScanner(strings.NewReader(obs.Default.Expose()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sum adds every series of the metric whose labels contain each of the
// given label pairs (as `key="value"`).
func (m metricsText) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range m {
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base = series[:i]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(series, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after.sum - before.sum for one metric.
func delta(before, after metricsText, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
