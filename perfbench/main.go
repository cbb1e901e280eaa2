// Command perfbench is the repository's end-to-end monitoring benchmark.
//
// Set-up deploys clusters on the simulated cloud, runs real rolling
// upgrades on them and records the operation lines they emit; it then
// stops the cloud's reconciler and starts the monitor. The measured phase
// replays the recordings open-loop, as independent operations arriving
// on a fixed schedule, and judges every operation against the injected
// ground truth. The last line of standard output is one JSON object with
// the run's metrics; see METRICS.md for their definitions.
//
//	perfbench --workload clean-chatty --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
)

// setupRepeats is how many set-ups an untraced run makes; setup_s is
// their median.
const setupRepeats = 3

// maxLateP99 is the generator lateness beyond which a run is invalid:
// the traffic no longer follows its schedule.
const maxLateP99 = 50 * time.Millisecond

func main() {
	name := flag.String("workload", "clean-chatty", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measured-phase length in wall seconds")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	flag.Parse()
	if err := bench(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench runs one workload and prints the result line.
func bench(name string, seed int64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var res *result
	if traced {
		res, err = tracedRun(w, seed, seconds)
	} else {
		res, err = plainRun(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is one set-up: account, traffic and a started monitor.
type phase struct {
	w     *workload
	acct  *account
	tr    *traffic
	mon   *monitor
	trc   *tracer
	setup time.Duration
}

func setUp(w *workload, seed int64, seconds float64, trc *tracer) (*phase, error) {
	start := clock.Wall.Now()
	var inject func(context.Context, string) error
	if trc != nil {
		inject = trc.injector
	}
	acct, err := buildAccount(seed, w.Clusters, w.Size, w.Scale, logging.NewBus(), inject)
	if err != nil {
		return nil, err
	}
	tr, err := generate(w, acct, seed, seconds)
	if err != nil {
		acct.bus.Close()
		return nil, err
	}
	mon, err := startMonitor(w, acct, tr.ChaosSeed, trc)
	if err != nil {
		acct.bus.Close()
		return nil, err
	}
	return &phase{w: w, acct: acct, tr: tr, mon: mon, trc: trc, setup: clock.Wall.Since(start)}, nil
}

func (p *phase) tearDown() {
	p.mon.stop()
	p.acct.bus.Close()
}

// measurement is what one measured phase observed.
type measurement struct {
	run       *run
	cpu, wall time.Duration
	mallocs   uint64
	heapMB    float64
	lateP99   float64 // generator lateness, ms
	attempted int
	failed    int
	faulty    int
	executed  int // executed remediations on faulty operations
	verdicts  []float64
	outcomes  []float64
	causes    []float64 // faulty operations only
	walks     []float64 // simulated seconds per diagnosis walk
	tests     []float64 // tests per walk
}

func (m *measurement) cpuPerOp() float64 {
	return float64(m.cpu) / float64(time.Millisecond) / float64(m.attempted)
}

// measure runs the measured phase. The live heap is read after a GC at
// its end, before teardown, once the harness has dropped its
// pre-rendered input and receipts: what stays live is the monitor, the
// account and the per-operation results.
func (p *phase) measure() *measurement {
	r := newRun(p.w, p.acct, p.tr, p.mon, p.trc)
	runtime.GC()
	var before, after, end runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, wall0 := cpuTime(), clock.Wall.Now()
	r.execute(context.Background())
	m := &measurement{run: r, cpu: cpuTime() - cpu0, wall: clock.Wall.Since(wall0)}
	runtime.ReadMemStats(&after)
	m.lateP99 = quantile(ms(r.late), 0.99)
	r.release()
	p.tr.Actions = nil
	runtime.GC()
	runtime.ReadMemStats(&end)
	m.mallocs = after.Mallocs - before.Mallocs
	m.heapMB = float64(end.HeapAlloc) / (1 << 20)
	for i, res := range r.results {
		op := p.tr.Ops[i]
		m.attempted++
		m.verdicts = append(m.verdicts, ms(res.Verdicts)...)
		if res.HasOutcome {
			m.outcomes = append(m.outcomes, res.Outcome.Seconds())
			if op.Fault != 0 {
				m.causes = append(m.causes, res.Outcome.Seconds())
			}
		}
		if op.Fault != 0 {
			m.faulty++
			m.executed += res.Executed
		}
		m.walks = append(m.walks, res.Walks...)
		m.tests = append(m.tests, res.Tests...)
		if len(res.Failures) > 0 {
			m.failed++
		}
	}
	return m
}

// report prints the human-readable summary: failing operations with
// their reasons, run-level problems, lateness and percentiles' support.
func (m *measurement) report(p *phase) bool {
	ok := m.failed == 0 && len(m.run.problems) == 0
	for i, res := range m.run.results {
		for _, f := range res.Failures {
			fmt.Printf("FAILED %s (%s): %s\n", p.tr.Ops[i].ID, faultName(p.tr.Ops[i]), f)
		}
	}
	for _, pr := range m.run.problems {
		fmt.Println("PROBLEM", pr)
	}
	late := m.lateP99
	var gaps uint64
	for _, mgr := range p.mon.live() {
		gaps += mgr.ReorderStats().Gaps
	}
	fmt.Printf("measured %.2fs wall, %.2fs cpu; ops %d (faulty %d, flips redrawn %d), failed_op_ratio %.4f; loadgen.late_ms_p99 %.3f; reorder gaps %d\n",
		m.wall.Seconds(), m.cpu.Seconds(), m.attempted, m.faulty, m.run.flipRedraws, float64(m.failed)/float64(m.attempted), late, gaps)
	fmt.Printf("verdicts %d (beyond p99: %d): p50 %.3f ms, p99 %.3f ms; outcomes %d (beyond p90: %d): time_to_outcome p50 %.3f s, p90 %.3f s; causes %d (beyond p90: %d): time_to_cause p50 %.3f s, p90 %.3f s\n",
		len(m.verdicts), beyond(len(m.verdicts), 0.99), quantile(m.verdicts, 0.5), quantile(m.verdicts, 0.99),
		len(m.outcomes), beyond(len(m.outcomes), 0.9), quantile(m.outcomes, 0.5), quantile(m.outcomes, 0.9),
		len(m.causes), beyond(len(m.causes), 0.9), quantile(m.causes, 0.5), quantile(m.causes, 0.9))
	if late > float64(maxLateP99)/float64(time.Millisecond) {
		fmt.Printf("INVALID run: the load generator fell behind its schedule (late p99 %.1f ms > %v)\n", late, maxLateP99)
		ok = false
	}
	if beyond(len(m.verdicts), 0.99) < 10 || beyond(len(m.outcomes), 0.9) < 10 ||
		(p.w.Causes && beyond(len(m.causes), 0.9) < 10) {
		fmt.Println("INVALID run: too few samples beyond a reported percentile")
		ok = false
	}
	return ok
}

func faultName(op *opPlan) string {
	if op.Fault == 0 {
		return "clean"
	}
	return op.Fault.String()
}

// plainRun is the untraced run: set up setupRepeats times, one after
// another so each set-up is timed alone, report the median set-up time,
// and measure the last one.
func plainRun(w *workload, seed int64, seconds float64) (*result, error) {
	var setups []float64
	var p *phase
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.tearDown()
		}
		var err error
		if p, err = setUp(w, seed, seconds, nil); err != nil {
			return nil, err
		}
		setups = append(setups, p.setup.Seconds())
	}
	defer p.tearDown()
	printHeader(p)
	m := p.measure()
	ok := m.report(p)
	return &result{
		Correct: ok, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"cpu_ms_per_op": {m.cpuPerOp(), "ms"},
			"allocs_per_op": {float64(m.mallocs) / float64(m.attempted), "count"},
			"heap_mb":       {m.heapMB, "MiB"},
		},
	}, nil
}

func printHeader(p *phase) {
	fmt.Printf("workload %s scale %.0fx seed-fingerprint %s ops %d lines %d noise %d setup %.3fs\n",
		p.w.Name, p.w.Scale, p.tr.Fingerprint, len(p.tr.Ops), p.tr.OpLines, p.tr.NoiseLines, p.setup.Seconds())
}

// tracedRun measures the same seed twice: untraced, for the tracing
// overhead, then traced, for the per-layer metrics.
func tracedRun(w *workload, seed int64, seconds float64) (*result, error) {
	plain, err := setUp(w, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	printHeader(plain)
	base := plain.measure()
	baseOK := base.report(plain)
	plain.tearDown()

	trc := &tracer{apiCalls: map[string]int64{}}
	p, err := setUp(w, seed, seconds, trc)
	if err != nil {
		return nil, err
	}
	defer p.tearDown()
	printHeader(p)
	trc.resetAPI()
	obs0 := scrapeObs()
	gc0 := readCPUClasses()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m := p.measure()
	pprof.StopCPUProfile()
	gc1 := readCPUClasses()
	obs1 := scrapeObs()
	ok := m.report(p) && baseOK

	layers, err := layerMetrics(p, m, base, prof.Bytes(), obs0, obs1, gc0, gc1)
	if err != nil {
		return nil, err
	}
	for _, msg := range selfCheck(p.w, layers) {
		fmt.Println("SELF-CHECK FAILED:", msg)
		ok = false
	}
	return &result{Correct: ok, Attempted: m.attempted, Failed: m.failed, Metrics: layers}, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCPUClasses returns the runtime's cumulative GC and total CPU
// seconds.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// finite maps the NaN of an empty sample to zero for JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
