package main

import (
	"context"
	"fmt"
	"time"

	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/remediate"
)

// monitor is the system under test: one Manager, or a federation front
// over in-process members that share the account and the bus.
type monitor struct {
	acct    *account
	mgr     *core.Manager
	front   *federate.Front
	members []*federate.LocalMember
}

// startMonitor builds and starts the workload's monitor. Every Manager
// runs with its default config apart from what the workload names:
// remediation policy, chaos log tap, and, in a traced run, the tracer's
// registry and timestamping tap.
func startMonitor(w *workload, acct *account, chaosSeed int64, tr *tracer) (*monitor, error) {
	m := &monitor{acct: acct}
	newManager := func(member int) (*core.Manager, error) {
		cfg := core.ManagerConfig{Cloud: acct.cloud, Bus: acct.bus}
		if w.Remediate {
			cfg.Remediation = remediate.SuggestedPolicy(remediate.ModeAuto)
			cfg.RemediationCatalog = remediate.DefaultCatalog()
		}
		var taps []func(<-chan logging.Event) <-chan logging.Event
		if tr != nil {
			cfg.Registry = tr.registry(acct.clk)
			taps = append(taps, tr.logTap)
		}
		if w.Chaos != nil {
			p := *w.Chaos
			p.Seed = chaosSeed + int64(member)
			taps = append(taps, p.LogTap(acct.clk))
		}
		if len(taps) > 0 {
			cfg.LogTap = chainTaps(taps)
		}
		mgr, err := core.NewManager(cfg)
		if err != nil {
			return nil, err
		}
		mgr.Start()
		return mgr, nil
	}
	if !w.Federated {
		mgr, err := newManager(0)
		if err != nil {
			return nil, err
		}
		m.mgr = mgr
		return m, nil
	}
	m.front = federate.NewFront(acct.clk, federate.Config{LeaseTTL: w.LeaseTTL})
	for i := 0; i < w.Members; i++ {
		i := i
		lm, err := federate.NewLocalMember(federate.LocalConfig{
			ID:         fmt.Sprintf("member-%d", i),
			NewManager: func() (*core.Manager, error) { return newManager(i) },
		})
		if err != nil {
			m.stop()
			return nil, err
		}
		m.members = append(m.members, lm)
		if i == w.Members-1 {
			continue // joins mid-run
		}
		if err := lm.JoinFront(m.front); err != nil {
			m.stop()
			return nil, err
		}
	}
	return m, nil
}

// chainTaps composes log taps in order.
func chainTaps(taps []func(<-chan logging.Event) <-chan logging.Event) func(<-chan logging.Event) <-chan logging.Event {
	return func(in <-chan logging.Event) <-chan logging.Event {
		for _, t := range taps {
			in = t(in)
		}
		return in
	}
}

// watch registers one operation.
func (m *monitor) watch(op *opPlan) error {
	x := op.Expect
	if m.front == nil {
		_, err := m.mgr.Watch(x, core.WithSessionID(op.ID), core.BindInstance(op.Task))
		return err
	}
	_, _, err := m.front.Watch(context.Background(), federate.WatchRequest{ID: op.ID, Expect: x, InstanceIDs: []string{op.Task}})
	return err
}

// live returns every running Manager.
func (m *monitor) live() []*core.Manager {
	if m.front == nil {
		return []*core.Manager{m.mgr}
	}
	var out []*core.Manager
	for _, lm := range m.members {
		if mgr := lm.Manager(); mgr != nil {
			out = append(out, mgr)
		}
	}
	return out
}

// holders returns the live Managers holding a session for the operation.
func (m *monitor) holders(opID string) []*core.Manager {
	var out []*core.Manager
	for _, mgr := range m.live() {
		if mgr.Session(opID) != nil {
			out = append(out, mgr)
		}
	}
	return out
}

// owner returns the Manager the monitor routes the operation to.
func (m *monitor) owner(opID string) *core.Manager {
	if m.front == nil {
		return m.mgr
	}
	id, _, ok := m.front.Owner(opID)
	if !ok {
		return nil
	}
	for _, lm := range m.members {
		if lm.ID() == id {
			return lm.Manager()
		}
	}
	return nil
}

// join joins member i to the front, which rebalances operations onto
// it by export, restore and remove handoffs.
func (m *monitor) join(i int) error { return m.members[i].JoinFront(m.front) }

// stop shuts every running Manager down.
func (m *monitor) stop() {
	if m.front != nil {
		m.front.Stop()
	}
	for _, mgr := range m.live() {
		mgr.Stop()
	}
}

// chaosReorder is the federated workload's log tap: reorder and
// duplicates, never drops. Held lines come back well inside the
// Manager's default 3 s reorder window, so a declared gap would be a
// finding, not an artefact of the chaos.
func chaosReorder() *chaos.Profile {
	return &chaos.Profile{Name: "reorder-dup", DupProb: 0.05, ReorderProb: 0.10, MaxDelay: 500 * time.Millisecond}
}
