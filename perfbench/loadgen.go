package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
)

// lineKey identifies one replayed operation line: its task and its
// simulated timestamp, which the conformance verdict echoes.
type lineKey struct {
	task string
	ts   int64
}

// receipts is what the sampler goroutine saw on the bus: the wall time
// of each line's first conformance verdict, and each task's post-step
// assertion results.
type receipts struct {
	mu      sync.Mutex
	verdict map[lineKey]time.Time
	asserts map[string][]assertReceipt
}

// assertReceipt is one post-step assertion result: the step whose line
// triggered it, when the evaluation started, and the simulated time the
// result reached the bus.
type assertReceipt struct {
	step    string
	started time.Time
	got     time.Time
}

func (r *receipts) note(ev logging.Event, wall, sim time.Time) {
	task := ev.Field("taskid")
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Type {
	case logging.TypeConformance:
		k := lineKey{task, ev.Timestamp.UnixNano()}
		if _, seen := r.verdict[k]; !seen {
			r.verdict[k] = wall
		}
	case logging.TypeAssertion:
		if ev.Field("trigger") == string(assertion.TriggerLog) && task != "" {
			r.asserts[task] = append(r.asserts[task], assertReceipt{ev.Field("steppostcon"), ev.Timestamp, sim})
		}
	}
}

// takeVerdict removes and returns the verdict receipt of one line.
func (r *receipts) takeVerdict(k lineKey) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.verdict[k]
	delete(r.verdict, k)
	return t, ok
}

// takeAsserts removes and returns the task's post-step assertion results.
func (r *receipts) takeAsserts(task string) []assertReceipt {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.asserts[task]
	delete(r.asserts, task)
	return a
}

// renderLead is the simulated time between rendering the schedule and
// its offset zero.
const renderLead = time.Minute

// run is one measured phase: the open-loop generator replaying the
// traffic into the monitor, the sampler watching the bus, and the
// per-operation outcomes.
type run struct {
	w    *workload
	acct *account
	tr   *traffic
	mon  *monitor
	trc  *tracer // nil when untraced

	phaseSim time.Time                     // simulated instant of schedule offset zero
	wallAt   func(time.Duration) time.Time // wall instant a schedule offset is due
	lines    [][]logging.Event             // per operation, pre-rendered
	noise    []logging.Event               // in schedule order
	rec      *receipts

	flipErr     map[int]error // written and read on the control goroutine
	flipRedraws int           // flips redrawn after a rogue-name collision

	late      []time.Duration
	results   []*opResult
	problemMu sync.Mutex
	problems  []string // run-level failures (not tied to one operation)
}

// newRun pre-renders every event of the schedule, so the measured phase
// spends no time formatting input.
func newRun(w *workload, acct *account, tr *traffic, mon *monitor, trc *tracer) *run {
	r := &run{
		w: w, acct: acct, tr: tr, mon: mon, trc: trc,
		rec:     &receipts{verdict: map[lineKey]time.Time{}, asserts: map[string][]assertReceipt{}},
		flipErr: map[int]error{},
		results: make([]*opResult, len(tr.Ops)),
	}
	// Offset zero of the schedule lands a little after rendering ends.
	r.phaseSim = acct.clk.Now().Add(renderLead)
	r.lines = make([][]logging.Event, len(tr.Ops))
	for k, op := range tr.Ops {
		stream := acct.clusters[op.Cluster].stream
		for i, off := range op.Offsets {
			ts := r.phaseSim.Add(off)
			r.lines[k] = append(r.lines[k], logging.Event{
				Timestamp:  ts,
				Source:     "asgard.log",
				SourceHost: "operation-node",
				Type:       logging.TypeOperation,
				Fields:     map[string]string{"taskid": op.Task},
				Message:    logging.FormatOperationLine(ts, op.Task, stream[i].Body),
			})
		}
	}
	for _, a := range tr.Actions {
		if a.Kind == actNoise {
			ts := r.phaseSim.Add(a.At)
			r.noise = append(r.noise, logging.Event{
				Timestamp:  ts,
				Source:     "asgard.log",
				SourceHost: "operation-node",
				Type:       logging.TypeOperation,
				Message:    "[" + ts.Format(logging.TimestampLayout) + "] " + a.Text,
			})
		}
	}
	return r
}

// execute replays the schedule open-loop: each action runs when it is
// due on the simulated clock, however far behind the monitor is.
func (r *run) execute(ctx context.Context) {
	clk := r.acct.clk
	sim0, wall0 := clk.Now(), clock.Wall.Now()
	wallAt := func(off time.Duration) time.Time {
		return wall0.Add(time.Duration(float64(r.phaseSim.Add(off).Sub(sim0)) / r.w.Scale))
	}
	r.wallAt = wallAt

	// The buffer holds a whole run's verdicts and assertion results, so
	// the sampler never loses one (a drop is reported as a problem).
	sub := r.acct.bus.SubscribeNamed("perfbench", 1<<16, logging.TypeFilter(logging.TypeConformance, logging.TypeAssertion))
	sampleDone := make(chan struct{})
	go r.sample(sub, sampleDone)

	// Everything but publishing runs on a control goroutine, in schedule
	// order: fault flips wait on simulated API latency, and judging,
	// heartbeats, lease ticks and the join take time the schedule must
	// not stall behind.
	control := make(chan action, len(r.tr.Actions))
	controlDone := make(chan struct{})
	go func() {
		defer close(controlDone)
		for a := range control {
			r.control(ctx, a)
		}
	}()

	noise := 0
	r.late = make([]time.Duration, 0, len(r.tr.Actions))
	for _, a := range r.tr.Actions {
		due := wallAt(a.At)
		if d := due.Sub(clock.Wall.Now()); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, clock.Wall.Since(due))
		switch a.Kind {
		case actWatch:
			if err := r.mon.watch(r.tr.Ops[a.Op]); err != nil {
				r.problem("%s: watch: %v", r.tr.Ops[a.Op].ID, err)
			}
		case actLine:
			r.publish(r.lines[a.Op][a.Line])
		case actNoise:
			r.publish(r.noise[noise])
			noise++
		default:
			control <- a
		}
	}
	close(control)
	<-controlDone
	sub.Cancel()
	<-sampleDone
	if n := sub.Dropped(); n > 0 {
		r.problem("sampler subscription dropped %d events", n)
	}
}

// release drops the pre-rendered input, the receipts and the lateness
// samples once the run is over, so the end-of-run heap holds the
// monitor's state rather than the harness's.
func (r *run) release() {
	r.lines, r.noise, r.rec, r.late = nil, nil, nil, nil
}

// control runs one non-publishing action.
func (r *run) control(ctx context.Context, a action) {
	switch a.Kind {
	case actFlip:
		r.flip(ctx, a.Op)
	case actFinish:
		r.results[a.Op] = r.judge(r.tr.Ops[a.Op])
	case actHeartbeat:
		r.heartbeat(a.Member)
	case actTick:
		r.tick(ctx)
	case actJoin:
		r.join(a.Member)
	}
}

// problem records a run-level failure.
func (r *run) problem(format string, args ...any) {
	r.problemMu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.problemMu.Unlock()
}

// publish puts one line on the bus, timed in a traced run.
func (r *run) publish(ev logging.Event) {
	if r.trc == nil {
		r.acct.bus.Publish(ev)
		return
	}
	r.trc.publish(r.acct.bus, ev)
}

// sample records verdicts and assertion results as they reach the bus and,
// in a traced run, samples the monitor's queue depth.
func (r *run) sample(sub *logging.Subscription, done chan<- struct{}) {
	defer close(done)
	var tick <-chan time.Time
	if r.trc != nil {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			r.rec.note(ev, clock.Wall.Now(), r.acct.clk.Now())
		case <-tick:
			r.trc.sampleQueues(r.mon)
		}
	}
}

// flipAttempts bounds the injections of one fault. faultinject names
// the rogue launch configuration, key pair or security group with 16
// random bits, so among the hundreds of faults a run injects into one
// account two can draw the same name; the create then fails with
// AlreadyExists before anything changed, and the flip is redrawn.
const flipAttempts = 3

// flip injects operation k's fault into its cluster through faultinject.
func (r *run) flip(ctx context.Context, k int) {
	op := r.tr.Ops[k]
	c := r.acct.clusters[op.Cluster]
	var err error
	for attempt := int64(0); attempt < flipAttempts; attempt++ {
		inj := faultinject.NewInjector(r.acct.cloud, c.cluster, (int64(k)+attempt<<32)^r.tr.ChaosSeed)
		err = inj.Inject(ctx, op.Fault, 0, c.newLC, c.newAMI)
		if simaws.ErrorCode(err) != simaws.ErrCodeAlreadyExists {
			break
		}
		r.flipRedraws++
	}
	r.flipErr[k] = err
}

// heartbeat renews member i's lease, timed in a traced run.
func (r *run) heartbeat(i int) {
	start := clock.Wall.Now()
	r.mon.members[i].HeartbeatNow()
	if r.trc != nil {
		r.trc.heartbeat(clock.Wall.Since(start), r.mon.members[i].Manager())
	}
}

// tick runs the front's lease monitor, timed in a traced run.
func (r *run) tick(ctx context.Context) {
	if r.trc == nil {
		r.mon.front.Tick(ctx)
		return
	}
	r.trc.tick(ctx, r.mon)
}

// join joins the late member, timed in a traced run: the rebalance's
// handoffs run inside the call.
func (r *run) join(i int) {
	start := clock.Wall.Now()
	err := r.mon.join(i)
	d := clock.Wall.Since(start)
	if err != nil {
		r.problem("join member %d: %v", i, err)
	}
	if r.trc != nil {
		moved := 0
		for _, op := range r.tr.Ops {
			if _, epoch, ok := r.mon.front.Owner(op.ID); ok && epoch > 1 {
				moved++
			}
		}
		r.trc.handoff(d, moved)
	}
}
