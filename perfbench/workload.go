package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"poddiagnosis/internal/chaos"
)

// workload is one traffic mix. Durations are simulated time.
type workload struct {
	Name string
	// Scale is the simulated-clock speed-up of the measured phase.
	Scale float64
	// Clusters is the account size; the first Shared clusters carry the
	// clean operations, the rest are exclusive to one faulty operation
	// at a time.
	Clusters, Shared int
	// Size is the instance count of every cluster.
	Size int
	// Spacing is the time between operation arrivals.
	Spacing time.Duration
	// Grace is how long after its last line an operation is judged.
	Grace time.Duration
	// NoisePerLine is the number of task-less noise lines per
	// operation line.
	NoisePerLine int
	// FaultEvery makes one operation in FaultEvery faulty (0: none);
	// FaultPhase shifts which one.
	FaultEvery, FaultPhase int
	// Causes reports time to cause: the run holds enough faulty
	// operations for ten samples beyond its p90.
	Causes bool
	// Remediate runs remediation under SuggestedPolicy(ModeAuto).
	Remediate bool
	// Chaos is each member's log tap; nil for none.
	Chaos *chaos.Profile
	// Federation: member count, lease TTL, heartbeat cadence, and the
	// point, as a share of the run, at which the last member joins. The
	// lease monitor ticks at the front's default cadence, LeaseTTL/4.
	Federated bool
	Members   int
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	JoinAt    float64
}

// seedSalt separates the workloads' random streams for one seed.
func (w *workload) seedSalt() int64 {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	return int64(h.Sum64() >> 1)
}

// workloads are the benchmark's traffic mixes. All three replay the same
// kind of recorded rolling upgrade of 4-instance clusters; they differ in
// noise share, account size, fault share and stream reordering.
var workloads = []*workload{
	{
		// Many overlapping clean upgrades on a small account: three of
		// every four stream lines are noise. Ingest-heavy; diagnosis,
		// remediation, reorder and federation idle.
		Name: "clean-chatty", Scale: 200,
		Clusters: 3, Shared: 3, Size: 4,
		Spacing: 12 * time.Second, Grace: 2 * time.Minute,
		NoisePerLine: 3,
	},
	{
		// Every operation carries a configuration fault on its own
		// cluster of a large account, healed by remediation. Assertion,
		// consistent-API, diagnosis and simulator heavy.
		Name: "faulty-heal", Scale: 400,
		Clusters: 24, Shared: 0, Size: 4,
		Spacing: 55 * time.Second, Grace: 2 * time.Minute,
		FaultEvery: 1, Causes: true, Remediate: true,
	},
	{
		// The clean mix without noise, one operation in eight faulty,
		// behind a federation front whose members see a reordered,
		// duplicated stream; a member joins mid-run and the front
		// rebalances operations onto it.
		Name: "federated-reorder", Scale: 50,
		Clusters: 20, Shared: 3, Size: 2,
		Spacing: 5 * time.Second, Grace: time.Minute,
		FaultEvery: 8, FaultPhase: 3, Remediate: true,
		Chaos:     chaosReorder(),
		Federated: true, Members: 3,
		LeaseTTL: 30 * time.Second, Heartbeat: 15 * time.Second,
		JoinAt: 0.4,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
