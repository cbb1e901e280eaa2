package main

import (
	"fmt"
	"math"
	"time"
)

// modules are the repo's internal packages, the layers CPU is split by.
var modules = []string{
	"assertion", "assertspec", "chaos", "clock", "conformance", "consistentapi", "core",
	"diagnosis", "diagplan", "experiment", "faultinject", "faulttree", "federate", "lint",
	"logging", "logstore", "mining", "obs", "offline", "pipeline", "process", "remediate",
	"resilience", "rest", "simaws", "upgrade",
}

// layerMetrics computes the traced run's per-layer metrics.
func layerMetrics(p *phase, m, base *measurement, prof []byte, obs0, obs1 metricsText, gc0, gc1 [2]float64) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{finite(v), unit} }
	ops := float64(m.attempted)

	shares, total, err := profileShares(prof)
	if err != nil {
		return nil, err
	}
	for _, l := range append(append([]string(nil), modules...), "runtime", "other") {
		set(l+".cpu_pct", "%", pct(shares[l], total))
	}
	for l := range shares {
		if _, ok := out[l+".cpu_pct"]; !ok {
			return nil, fmt.Errorf("profile layer %q is not a known module", l)
		}
	}

	trc := p.trc
	trc.mu.Lock()
	defer trc.mu.Unlock()
	us := func(ds []time.Duration) []float64 {
		v := ms(ds)
		for i := range v {
			v[i] *= 1000
		}
		return v
	}

	set("logging.publish_us_p50", "us", quantile(us(trc.publishWall), 0.5))
	set("logging.sub_wait_us_p99", "us", quantile(us(trc.tapWait), 0.99))
	set("logging.dropped", "count", delta(obs0, obs1, "pod_logbus_dropped_total"))

	seen := delta(obs0, obs1, "pod_pipeline_events_total", `disposition="seen"`)
	set("pipeline.noise_ratio", "ratio", delta(obs0, obs1, "pod_pipeline_events_total", `disposition="dropped"`)/seen)
	set("pipeline.reorder_held", "count", delta(obs0, obs1, "pod_reorder_events_total", `disposition="held"`))
	set("pipeline.reorder_dups", "count", delta(obs0, obs1, "pod_reorder_events_total", `disposition="duplicate"`))
	set("pipeline.reorder_gaps", "count", delta(obs0, obs1, "pod_reorder_gaps_total"))

	checks := delta(obs0, obs1, "pod_conformance_check_seconds_count")
	set("conformance.check_us_mean", "us", delta(obs0, obs1, "pod_conformance_check_seconds_sum")/checks*1e6)

	set("core.queue_depth_p99", "count", quantile(trc.queueDepth, 0.99))
	set("core.work_dropped", "count", delta(obs0, obs1, "pod_engine_work_dropped_total"))

	evals := float64(trc.evals.Load())
	set("assertion.evals_per_op", "count", evals/ops)
	set("assertion.eval_sim_ms_p50", "ms", quantile(ms(trc.evalSim), 0.5))
	monitoring, all := trc.apiTotals()
	set("consistentapi.api_calls_per_eval", "ratio", float64(monitoring)/evals)

	set("resilience.retries", "count", delta(obs0, obs1, "pod_resilience_retries_total"))
	set("resilience.short_circuits", "count", delta(obs0, obs1, "pod_resilience_short_circuits_total"))

	walks := delta(obs0, obs1, "pod_diagnosis_walks_total")
	tests := delta(obs0, obs1, "pod_diagnosis_tests_total")
	hits := delta(obs0, obs1, "pod_diagnosis_cache_hits_total") + delta(obs0, obs1, "pod_diagnosis_shared_cache_hits_total")
	set("diagnosis.walks", "count", walks)
	set("diagnosis.tests_per_walk", "count", median(m.tests))
	set("diagnosis.walk_sim_s_p50", "s", quantile(m.walks, 0.5))
	set("diagnosis.cache_hit_ratio", "ratio", hits/(hits+tests))

	set("remediate.executed_per_faulty_op", "ratio", float64(m.executed)/float64(m.faulty))
	set("remediate.deduped", "count", delta(obs0, obs1, "pod_remediation_deduped_total"))

	set("obs.flight_entries_per_op", "count", delta(obs0, obs1, "pod_flight_entries_total")/ops)
	retained := 0
	for _, mgr := range p.mon.live() {
		retained += mgr.Store().Len()
	}
	set("logstore.lines_retained", "count", float64(retained))

	set("federate.heartbeat_us_p50", "us", quantile(us(trc.heartbeats), 0.5))
	set("federate.snapshot_bytes_p50", "bytes", quantile(trc.snapBytes, 0.5))
	set("federate.tick_us_p50", "us", quantile(us(trc.ticks), 0.5))
	var handoff time.Duration
	for _, d := range trc.handoffs {
		handoff += d
	}
	set("federate.handoff_ms", "ms", float64(handoff)/float64(time.Millisecond))
	set("federate.handoff_us_per_op", "us", float64(handoff)/float64(time.Microsecond)/float64(trc.moved))
	set("federate.calls", "count", delta(obs0, obs1, "pod_fed_renewals_total")+delta(obs0, obs1, "pod_fed_handoffs_total")+float64(len(trc.ticks)+len(trc.handoffs)))

	set("simaws.api_calls_per_op", "count", float64(all)/ops)
	set("simaws.throttled", "count", delta(obs0, obs1, "pod_simaws_api_throttled_total"))

	// End-to-end quantities without a regression bound, from the
	// untraced pass of the same seed: tail latency and simulated times
	// move with host scheduling more than a bound allows, time to cause
	// is reported only where the run holds enough faulty operations for
	// its p90, and the failed share is zero when healthy (METRICS.md).
	set("e2e.verdict_p50_ms", "ms", quantile(base.verdicts, 0.5))
	set("e2e.verdict_p99_ms", "ms", quantile(base.verdicts, 0.99))
	set("e2e.time_to_outcome_p50_s", "s", quantile(base.outcomes, 0.5))
	set("e2e.time_to_outcome_p90_s", "s", quantile(base.outcomes, 0.9))
	if p.w.Causes {
		set("e2e.time_to_cause_p50_s", "s", quantile(base.causes, 0.5))
		set("e2e.time_to_cause_p90_s", "s", quantile(base.causes, 0.9))
	} else {
		set("e2e.time_to_cause_p50_s", "s", 0)
		set("e2e.time_to_cause_p90_s", "s", 0)
	}
	set("e2e.failed_op_ratio", "ratio", float64(base.failed)/float64(base.attempted))

	set("runtime.gc_cpu_pct", "%", 100*(gc1[0]-gc0[0])/(gc1[1]-gc0[1]))
	set("loadgen.late_ms_p99", "ms", m.lateP99)
	set("trace.overhead_pct", "%", 100*(m.cpuPerOp()/base.cpuPerOp()-1))
	return out, nil
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// selfCheck verifies that each workload still exercises, and bypasses,
// the layers it exists for, so a refactor cannot silently make one
// meaningless.
func selfCheck(w *workload, l map[string]metric) []string {
	var bad []string
	if w.Name == "clean-chatty" && l["diagnosis.walks"].Value != 0 {
		bad = append(bad, fmt.Sprintf("clean-chatty ran %v diagnosis walks, want 0", l["diagnosis.walks"].Value))
	}
	if !w.Federated && l["federate.calls"].Value != 0 {
		bad = append(bad, fmt.Sprintf("%s made %v federation calls, want 0", w.Name, l["federate.calls"].Value))
	}
	if dups := l["pipeline.reorder_dups"].Value; (dups > 0) != (w.Chaos != nil) {
		bad = append(bad, fmt.Sprintf("%s discarded %v duplicates; want duplicates only under the chaos tap", w.Name, dups))
	}
	if w.NoisePerLine > 0 {
		want := float64(w.NoisePerLine) / float64(w.NoisePerLine+1)
		if got := l["pipeline.noise_ratio"].Value; math.Abs(got-want) > 0.005 {
			bad = append(bad, fmt.Sprintf("%s noise ratio %.4f, want %.4f", w.Name, got, want))
		}
	}
	return bad
}
