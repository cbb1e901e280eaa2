package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
)

// newChaosRig is newMultiRig with a chaos profile tapping the log stream
// (and, when the profile attacks the API plane, storming the monitoring
// plane's cloud reads). A moderate scale and a widened reorder window keep
// wall-clock scheduler noise out of the watermark.
func newChaosRig(t *testing.T, p chaos.Profile) *multiRig {
	t.Helper()
	clk := clock.NewScaled(600, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	cloudOpts := []simaws.Option{simaws.WithSeed(33), simaws.WithBus(bus)}
	if inj := p.FaultInjector(clk); inj != nil {
		cloudOpts = append(cloudOpts, simaws.WithFaultInjector(inj))
	}
	cloud := simaws.New(clk, profile, cloudOpts...)
	cloud.Start()
	mgr, err := NewManager(ManagerConfig{
		Cloud:         cloud,
		Bus:           bus,
		LogTap:        p.LogTap(clk),
		ReorderWindow: 15 * time.Second,
		API: consistentapi.Config{
			MaxAttempts:    3,
			InitialBackoff: 500 * time.Millisecond,
			MaxBackoff:     4 * time.Second,
			CallTimeout:    30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	t.Cleanup(func() { mgr.Stop(); cloud.Stop(); bus.Close() })
	return &multiRig{clk: clk, bus: bus, cloud: cloud, mgr: mgr, ctx: context.Background()}
}

// TestChaosSoakFourConcurrentUpgrades is the -race soak: four clean
// rolling upgrades monitored through one Manager while the chaos harness
// drops, duplicates and reorders their log streams. The invariant is the
// CI chaos gate: chaos may cost detections their confidence (Degraded),
// but it must never manufacture a confident wrong diagnosis, and the
// Manager must shut down cleanly with nothing stranded in the reorder
// buffer.
func TestChaosSoakFourConcurrentUpgrades(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is slow")
	}
	p, _ := chaos.ByName("lossy")
	r := newChaosRig(t, p)
	const n = 4
	ops := make([]*op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, r.addOp(t, fmt.Sprintf("chaos%d", i), 2))
	}
	r.runAll(t, ops)

	for _, o := range ops {
		for _, d := range o.sess.Detections() {
			if d.InstanceID != o.taskID {
				t.Errorf("%s: detection references foreign instance %q", o.sess.ID(), d.InstanceID)
			}
			// A clean run under a lossy pipeline may produce degraded,
			// discounted detections (missing step events look anomalous) —
			// but a full-confidence identified root cause would be a lie.
			if d.Diagnosis != nil && d.Diagnosis.Conclusion == diagnosis.ConclusionIdentified && !d.Degraded {
				t.Errorf("%s: non-degraded identified diagnosis on a clean chaotic run: %+v",
					o.sess.ID(), d.Diagnosis)
			}
			if d.Degraded && d.Confidence >= 1 {
				t.Errorf("%s: degraded detection with undiscounted confidence %v", o.sess.ID(), d.Confidence)
			}
		}
	}
	if st := r.mgr.ReorderStats(); st.Pending != 0 {
		t.Errorf("reorder buffer stranded %d events after drain", st.Pending)
	}
}

// TestReorderingAloneCausesNoSpuriousDetections runs two clean upgrades
// through a reorder-only tap (no drops, no duplicates beyond the buffer's
// dedup reach): the reorder buffer must repair the stream inside its
// window, so sessions complete conformance with zero gaps, zero degraded
// intervals, and zero detections.
func TestReorderingAloneCausesNoSpuriousDetections(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos rig is slow")
	}
	r := newChaosRig(t, chaos.Profile{
		Name:        "reorder-only",
		ReorderProb: 0.5,
		MaxDelay:    2 * time.Second, // well inside the 15s reorder window
		DupProb:     0.05,            // duplicates are dedup'd, never gaps
	})
	ops := []*op{r.addOp(t, "ro0", 2), r.addOp(t, "ro1", 2)}
	r.runAll(t, ops)

	for _, o := range ops {
		if !o.sess.Checker().Completed(o.taskID) {
			t.Errorf("%s: conformance did not complete under reordering", o.sess.ID())
		}
		if o.sess.Degraded() {
			t.Errorf("%s: session degraded by reordering alone", o.sess.ID())
		}
		for _, d := range o.sess.Detections() {
			if d.Diagnosis == nil || d.Diagnosis.Conclusion == diagnosis.ConclusionIdentified {
				t.Errorf("%s: spurious detection from reordering alone: %+v", o.sess.ID(), d)
			}
			if d.Degraded {
				t.Errorf("%s: degraded detection from reordering alone: %+v", o.sess.ID(), d)
			}
		}
	}
	if st := r.mgr.ReorderStats(); st.Gaps != 0 {
		t.Errorf("reorder stats = %+v, want zero gaps", st)
	}
}

// TestDegradedModeOnInducedGap checks the degraded-mode plumbing directly:
// a sequence gap on the pipeline marks active sessions degraded for the
// hold window, and the flag decays once the hold elapses.
func TestDegradedModeOnInducedGap(t *testing.T) {
	r := newMultiRig(t, nil)
	s, err := r.mgr.Watch(Expectation{ASGName: "dg--asg", ClusterSize: 2}, BindInstance("dg-task"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("fresh session already degraded")
	}
	now := r.clk.Now()
	ev := logging.Event{
		Timestamp: now,
		Source:    "asgard.log",
		Type:      logging.TypeOperation,
		Fields:    map[string]string{"taskid": "dg-task"},
		Message:   logging.FormatOperationLine(now, "dg-task", "Starting rolling upgrade of group dg--asg to image ami-x"),
	}
	// Publish seq 1, then skip ahead: the bus stamps 1, 2, 3...; a copy
	// with a forged higher Seq models two lost events in shipping.
	r.bus.Publish(ev)
	forged := ev.Clone()
	forged.Seq = 4
	r.bus.Publish(forged)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && r.mgr.ReorderStats().Gaps == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	// The gap is declared by the clock-driven watermark (3s simulated).
	if r.mgr.ReorderStats().Gaps == 0 {
		t.Fatal("forged sequence jump declared no gap")
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !s.Degraded() {
		time.Sleep(2 * time.Millisecond)
	}
	if !s.Degraded() {
		t.Fatal("session not degraded after pipeline gap")
	}
	// The hold decays in simulated time (30s at scale 1200 = 25ms wall).
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && s.Degraded() {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Degraded() {
		t.Error("degraded flag never decayed")
	}
}
