package main

import (
	"fmt"
	"strings"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
)

// opResult is one operation's judgement.
type opResult struct {
	Failures []string        // empty when the operation passed the oracle
	Verdicts []time.Duration // wall latency of each line's verdict
	// Outcome is the monitor's time to conclude, in simulated time: for
	// a faulty operation from the line that reveals the fault to the
	// confirmed cause; for a clean one the mean, over its post-step
	// assertions, from the triggering line to the assertion's result.
	Outcome    time.Duration
	HasOutcome bool
	Executed   int       // executed remediations
	Walks      []float64 // simulated seconds of each diagnosis walk
	Tests      []float64 // tests run by each diagnosis walk
}

func (o *opResult) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// judge applies the per-operation correctness oracle, using the repo's
// own definitions of correct:
//   - a clean operation has no confident (non-degraded) detection and
//     every line gets a conformance verdict;
//   - a faulty operation has a confirmed cause in the fault kind's
//     ExpectedRootCauses, and flight.ChainToLog walks from that cause to
//     a raw log event;
//   - a faulty operation has its repair executed, and no idempotency key
//     executed twice on any member's ledger; a clean one has nothing
//     executed;
//   - under federation the operation has exactly one holder.
func (r *run) judge(op *opPlan) *opResult {
	res := &opResult{}
	for i, ev := range r.lines[op.Index] {
		due := r.wallAt(op.Offsets[i])
		if got, ok := r.rec.takeVerdict(lineKey{op.Task, ev.Timestamp.UnixNano()}); ok {
			res.Verdicts = append(res.Verdicts, got.Sub(due))
		} else if op.Fault == 0 {
			res.fail("line %d (%s) got no conformance verdict", i, r.acct.clusters[op.Cluster].stream[i].Step)
		}
	}
	asserts := r.rec.takeAsserts(op.Task)

	if r.mon.front != nil {
		if n := len(r.mon.holders(op.ID)); n != 1 {
			res.fail("%d live members hold the session, want 1", n)
		}
	}
	mgr := r.mon.owner(op.ID)
	if mgr == nil {
		res.fail("no live owner")
		return res
	}
	sess := mgr.Session(op.ID)
	if sess == nil {
		res.fail("owner holds no session")
		return res
	}
	dets := sess.Detections()
	for _, d := range dets {
		if d.Diagnosis != nil {
			res.Walks = append(res.Walks, d.Diagnosis.Duration.Seconds())
			res.Tests = append(res.Tests, float64(len(d.Diagnosis.TestsRun)))
		}
	}

	if op.Fault == 0 {
		for _, d := range dets {
			if !d.Degraded {
				res.fail("confident detection on a clean operation: %s at %s: %s", d.TriggerID, d.StepID, d.Message)
				break
			}
		}
		r.judgeClean(op, asserts, res)
	} else {
		if err := r.flipErr[op.Index]; err != nil {
			res.fail("fault injection: %v", err)
		}
		r.judgeCause(op, sess, dets, res)
	}

	r.judgeRemediation(op, res)
	return res
}

// repairAction is the catalog action that repairs every fault the
// benchmark injects: each is a changed launch-configuration attribute,
// and rolling the group back to the intended launch configuration is
// what heals it.
const repairAction = "rollback-launch-config"

// judgeRemediation checks the operation's remediations on every live
// member's ledger, not only the owner's: one engine refuses a key it
// already holds, so a duplicate execution (the old owner and the
// adopter both firing one key) shows only across ledgers.
func (r *run) judgeRemediation(op *opPlan, res *opResult) {
	var ledgers [][]remediate.Remediation
	for _, mgr := range r.mon.live() {
		if eng := mgr.Remediator(); eng != nil {
			ledgers = append(ledgers, eng.List(op.ID))
		}
	}
	checkRemediations(op.Fault != 0 && r.w.Remediate, op.Fault == 0, ledgers, res)
}

// checkRemediations judges one operation's executed remediations over
// the given ledgers. A record replicated by handoff keeps its id and
// timestamps, so one execution seen on two ledgers counts once; two
// identities under one idempotency key are a duplicate execution. A
// repaired operation must have had repairAction executed exactly once; a
// clean one must have nothing executed.
func checkRemediations(repaired, clean bool, ledgers [][]remediate.Remediation, res *opResult) {
	type identity struct {
		id                string
		created, resolved time.Time
	}
	byKey := map[string]map[identity]bool{}
	repairs := 0
	for _, ledger := range ledgers {
		for _, rm := range ledger {
			if rm.State != remediate.StateExecuted {
				continue
			}
			ids := byKey[rm.IdempotencyKey]
			if ids == nil {
				ids = map[identity]bool{}
				byKey[rm.IdempotencyKey] = ids
			}
			id := identity{rm.ID, rm.CreatedAt, rm.ResolvedAt}
			if !ids[id] && rm.Action == repairAction {
				repairs++
			}
			ids[id] = true
		}
	}
	for k, ids := range byKey {
		res.Executed += len(ids)
		if len(ids) > 1 {
			res.fail("remediation %s executed %d times", k, len(ids))
		}
	}
	switch {
	case clean && res.Executed > 0:
		res.fail("%d executed remediations on a clean operation", res.Executed)
	case repaired && repairs != 1:
		res.fail("%s executed %d times, want once (%d remediations executed)", repairAction, repairs, res.Executed)
	}
}

// judgeCause finds the earliest confident detection confirming an
// expected cause, checks its evidence chain, and measures time to cause
// from the scheduled time of the line whose step triggered it.
func (r *run) judgeCause(op *opPlan, sess *core.Session, dets []core.Detection, res *opResult) {
	expected := op.Fault.ExpectedRootCauses()
	var best *core.Detection
	var bestCause uint64
	var bestAt time.Time
	for i := range dets {
		d := &dets[i]
		if d.Degraded || d.Diagnosis == nil {
			continue
		}
		for _, c := range d.Diagnosis.RootCauses {
			if !c.Confirmed || !matchesBase(c.NodeID, expected) {
				continue
			}
			at := d.Diagnosis.StartedAt.Add(d.Diagnosis.Duration)
			if best == nil || at.Before(bestAt) {
				best, bestCause, bestAt = d, c.EvidenceID, at
			}
		}
	}
	if best == nil {
		var got []string
		for _, d := range dets {
			if d.Diagnosis != nil {
				for _, c := range d.Diagnosis.RootCauses {
					got = append(got, c.NodeID)
				}
			}
		}
		res.fail("%s: no confident confirmed cause in %v (got %v)", op.Fault, expected, got)
		return
	}
	if _, ok := flight.ChainToLog(sess.Timeline().Entries, bestCause); !ok {
		res.fail("%s: cause evidence does not chain to a raw log event", op.Fault)
	}
	reveal, ok := r.triggerLine(op, best.StepID, best.At)
	if !ok {
		res.fail("%s: detection at %v precedes every line", op.Fault, best.At)
		return
	}
	res.Outcome = bestAt.Sub(reveal)
	res.HasOutcome = true
}

// judgeClean measures a clean operation's outcome from its post-step
// assertion results and checks that its completion (step 8) was
// asserted.
func (r *run) judgeClean(op *opPlan, asserts []assertReceipt, res *opResult) {
	var sum time.Duration
	n, step8 := 0, false
	for _, a := range asserts {
		line, ok := r.triggerLine(op, a.step, a.started)
		if !ok {
			continue
		}
		sum += a.got.Sub(line)
		n++
		step8 = step8 || a.step == "step8"
	}
	if !step8 {
		res.fail("no step-8 assertion result")
	}
	if n > 0 {
		res.Outcome = sum / time.Duration(n)
		res.HasOutcome = true
	}
}

// triggerLine returns the scheduled time of the latest line of the
// given step at or before at (any line if none of that step).
func (r *run) triggerLine(op *opPlan, step string, at time.Time) (time.Time, bool) {
	stream := r.acct.clusters[op.Cluster].stream
	var match, anyLine time.Time
	for i, off := range op.Offsets {
		t := r.phaseSim.Add(off)
		if t.After(at) {
			break
		}
		anyLine = t
		if stream[i].Step == step {
			match = t
		}
	}
	if match.IsZero() {
		match = anyLine
	}
	return match, !match.IsZero()
}

// matchesBase reports whether a plan node id is one of the cause bases
// (catalog ids may carry a suffix after the base).
func matchesBase(node string, bases []string) bool {
	for _, b := range bases {
		if node == b || strings.HasPrefix(node, b+"-") {
			return true
		}
	}
	return false
}
