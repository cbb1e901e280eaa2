package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/upgrade"
)

// fakeAccount builds an account with synthetic recorded streams shaped
// like a rolling upgrade of the workload's cluster size, without a cloud.
func fakeAccount(w *workload) *account {
	steps := []string{"step1", "step2", "step2", "step3"}
	for i := 0; i < w.Size; i++ {
		steps = append(steps, "step4", "step5", "step6", "step7", "")
	}
	steps = append(steps, "step8")
	a := &account{}
	for i := 0; i < w.Clusters; i++ {
		app := fmt.Sprintf("c%02d", i)
		c := &clusterRec{cluster: &upgrade.Cluster{AppName: app, ASGName: app + "--asg", ELBName: app + "-elb", Size: w.Size}}
		for j, s := range steps {
			gap := 100 * time.Millisecond
			if s == "step7" {
				gap = 200 * time.Second
			}
			c.stream = append(c.stream, recordedLine{Gap: gap, Body: fmt.Sprintf("line %d", j), Step: s})
		}
		a.clusters = append(a.clusters, c)
	}
	return a
}

func TestFingerprintFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		acct := fakeAccount(w)
		a, err := generate(w, acct, 7, 20)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := generate(w, fakeAccount(w), 7, 20)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		c, err := generate(w, acct, 8, 20)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: seed 7 gave fingerprints %s and %s", w.Name, a.Fingerprint, b.Fingerprint)
		}
		if a.Fingerprint == c.Fingerprint {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", w.Name, a.Fingerprint)
		}
		if len(a.Actions) != len(b.Actions) {
			t.Errorf("%s: seed 7 gave %d and %d actions", w.Name, len(a.Actions), len(b.Actions))
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, _ := workloadByName("federated-reorder")
	tr, err := generate(w, fakeAccount(w), 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	faulty, joins := 0, 0
	for _, op := range tr.Ops {
		if op.Fault != 0 {
			faulty++
			if op.Cluster < w.Shared {
				t.Errorf("faulty %s runs on shared cluster %d", op.ID, op.Cluster)
			}
		}
	}
	for _, a := range tr.Actions {
		if a.Kind == actJoin {
			joins++
		}
	}
	if want := len(tr.Ops) / w.FaultEvery; faulty < want-1 || faulty > want+1 {
		t.Errorf("%d faulty of %d operations, want about one in %d", faulty, len(tr.Ops), w.FaultEvery)
	}
	if joins != 1 {
		t.Errorf("%d joins, want 1", joins)
	}
	for i := 1; i < len(tr.Actions); i++ {
		if tr.Actions[i].At < tr.Actions[i-1].At {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
}

// TestPlantedWrongExpectation runs a short clean-chatty phase in which
// one operation is told to expect the wrong image: the oracle must count
// exactly that operation as failed.
func TestPlantedWrongExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulated cloud for several seconds")
	}
	w, _ := workloadByName("clean-chatty")
	p, err := setUp(w, 11, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.tearDown()
	if len(p.tr.Ops) < 3 {
		t.Fatalf("only %d operations", len(p.tr.Ops))
	}
	const planted = 1
	p.tr.Ops[planted].Expect.NewImageID = "ami-planted"
	m := p.measure()
	for i, res := range m.run.results {
		switch {
		case i == planted && len(res.Failures) == 0:
			t.Errorf("planted %s passed the oracle", p.tr.Ops[i].ID)
		case i == planted && !strings.Contains(strings.Join(res.Failures, ";"), "confident detection"):
			t.Errorf("planted %s failed for the wrong reason: %v", p.tr.Ops[i].ID, res.Failures)
		case i != planted && len(res.Failures) > 0:
			t.Errorf("%s failed: %v", p.tr.Ops[i].ID, res.Failures)
		}
	}
	if m.failed != 1 {
		t.Errorf("failed = %d, want 1", m.failed)
	}
}

// TestRemediationOracle checks that the remediation oracle counts one
// execution replicated onto two ledgers once, and fails a key executed
// by two members, a missing or repeated repair and any execution on a
// clean operation.
func TestRemediationOracle(t *testing.T) {
	at := time.Date(2013, 11, 19, 12, 0, 0, 0, time.UTC)
	rec := func(id, action string, state remediate.State) remediate.Remediation {
		return remediate.Remediation{
			ID: id, Operation: "op", Action: action, State: state,
			IdempotencyKey: "op|" + action + "|wrong-ami", CreatedAt: at, ResolvedAt: at.Add(time.Second),
		}
	}
	rollback := rec("rm-1", repairAction, remediate.StateExecuted)
	replace := rec("rm-2", "replace-instance", remediate.StateExecuted)
	adopted := rollback
	adopted.ID = "rm-9" // the adopter fired the same key again
	for _, tc := range []struct {
		name     string
		repaired bool
		clean    bool
		ledgers  [][]remediate.Remediation
		want     string // substring of the failure; "" for a pass
		executed int
	}{
		{"repaired", true, false, [][]remediate.Remediation{{rollback, replace}}, "", 2},
		{"replicated", true, false, [][]remediate.Remediation{{rollback, replace}, {rollback}}, "", 2},
		{"split-brain", true, false, [][]remediate.Remediation{{rollback}, {adopted}}, "executed 2 times", 2},
		{"not repaired", true, false, [][]remediate.Remediation{{replace, rec("rm-3", repairAction, remediate.StateFailed)}}, "executed 0 times", 1},
		{"clean", false, true, nil, "", 0},
		{"clean executed", false, true, [][]remediate.Remediation{{replace}}, "clean operation", 1},
	} {
		res := &opResult{}
		checkRemediations(tc.repaired, tc.clean, tc.ledgers, res)
		got := strings.Join(res.Failures, "; ")
		switch {
		case tc.want == "" && got != "":
			t.Errorf("%s: failed: %s", tc.name, got)
		case tc.want != "" && !strings.Contains(got, tc.want):
			t.Errorf("%s: failures %q, want %q", tc.name, got, tc.want)
		}
		if res.Executed != tc.executed {
			t.Errorf("%s: executed %d, want %d", tc.name, res.Executed, tc.executed)
		}
	}
}

// TestProfileShares profiles a loop inside one of the repo's modules and
// checks that the attribution charges it to that module and that the
// layer shares cover every sample.
func TestProfileShares(t *testing.T) {
	model := process.RollingUpgradeModel()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		model.Classify("Instance c00 on i-0001 is ready for use. 1 of 4 instance relaunches done.")
	}
	pprof.StopCPUProfile()
	shares, total, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range shares {
		sum += v
	}
	if total == 0 || sum != total {
		t.Fatalf("shares sum to %d of %d", sum, total)
	}
	if shares["process"]*2 < total {
		t.Errorf("process module got %d of %d sampled ns, want most: %v", shares["process"], total, shares)
	}
}
