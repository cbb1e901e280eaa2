package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// simEpoch is the simulated instant every account starts at.
var simEpoch = time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)

// setupStagger spaces the clusters' deploy-and-upgrade starts so the
// account stays under PaperProfile's API rate limit.
const setupStagger = 3 * time.Second

// recordedLine is one operation log line of a recorded rolling upgrade.
type recordedLine struct {
	Gap  time.Duration // simulated time since the stream's previous line
	Body string        // the Asgard message after the timestamp and task label
	Step string        // the process step the line classifies to ("" if none)
}

// clusterRec is one deployed and upgraded cluster plus the operation
// stream its real upgrade emitted.
type clusterRec struct {
	cluster *upgrade.Cluster
	newAMI  string
	newLC   string
	stream  []recordedLine
}

// account is the simulated cloud left behind by set-up: every cluster in
// its post-upgrade state, the reconciler stopped.
type account struct {
	clk      *clock.Scaled
	bus      *logging.Bus
	cloud    *simaws.Cloud
	clusters []*clusterRec
}

// benchProfile is PaperProfile latency and throttling with stale reads
// off (they need the stopped reconciler's snapshots) and no account
// instance cap (the large account holds more than the paper's 40).
func benchProfile() simaws.Profile {
	p := simaws.PaperProfile()
	p.StaleProb = 0
	p.InstanceLimit = 0
	return p
}

// buildAccount deploys n clusters of size instances, runs the real
// upgrade.Upgrader on each, records the emitted lines with their
// simulated gaps, and stops the reconciler, so that the measured phase
// pays for the monitor and the API calls it makes, not for the
// simulator's background tick. The clusters upgrade concurrently on the
// workload's scaled clock.
func buildAccount(seed int64, n, size int, scale float64, bus *logging.Bus, inject simaws.FaultInjector) (*account, error) {
	clk := clock.NewScaled(scale, simEpoch)
	opts := []simaws.Option{simaws.WithSeed(seed), simaws.WithBus(bus)}
	if inject != nil {
		opts = append(opts, simaws.WithFaultInjector(inject))
	}
	a := &account{clk: clk, bus: bus, cloud: simaws.New(clk, benchProfile(), opts...)}
	a.cloud.Start()
	err := a.record(n, size)
	a.cloud.Stop()
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (a *account) record(n, size int) error {
	rec := logging.NewBus()
	defer rec.Close()
	// The buffer holds every line of every recorded upgrade; it is
	// drained once all of them have finished.
	sub := rec.Subscribe(1<<16, logging.TypeFilter(logging.TypeOperation))
	up := upgrade.NewUpgrader(a.cloud, rec)
	ctx := context.Background()

	a.clusters = make([]*clusterRec, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.clk.Sleep(ctx, time.Duration(i)*setupStagger); err != nil {
				errs[i] = err
				return
			}
			a.clusters[i], errs[i] = deployAndUpgrade(ctx, a.cloud, up, i, size)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Drain the recording: every line the upgrades emitted is buffered.
	byTask := map[string][]logging.Event{}
	for drained := false; !drained; {
		select {
		case ev := <-sub.C:
			byTask[ev.Field("taskid")] = append(byTask[ev.Field("taskid")], ev)
		default:
			drained = true
		}
	}
	model := process.RollingUpgradeModel()
	for i, c := range a.clusters {
		evs := byTask[recordTask(i)]
		if len(evs) == 0 {
			return fmt.Errorf("set-up: upgrade of %s emitted no lines", c.cluster.ASGName)
		}
		sort.SliceStable(evs, func(x, y int) bool { return evs[x].Seq < evs[y].Seq })
		prev := evs[0].Timestamp
		for _, ev := range evs {
			_, _, body, ok := logging.ParseOperationLine(ev.Message)
			if !ok {
				return fmt.Errorf("set-up: unparseable operation line %q", ev.Message)
			}
			step := ""
			if node, ok := model.Classify(body); ok {
				step = node.StepID
			}
			c.stream = append(c.stream, recordedLine{Gap: ev.Timestamp.Sub(prev), Body: body, Step: step})
			prev = ev.Timestamp
		}
	}
	return nil
}

// recordTask is the task id of cluster i's recorded upgrade.
func recordTask(i int) string { return fmt.Sprintf("record c%02d", i) }

func deployAndUpgrade(ctx context.Context, cloud *simaws.Cloud, up *upgrade.Upgrader, i, size int) (*clusterRec, error) {
	app := fmt.Sprintf("c%02d", i)
	cl, err := upgrade.Deploy(ctx, cloud, app, size, "v1")
	if err != nil {
		return nil, err
	}
	if err := waitReady(ctx, cloud, cl); err != nil {
		return nil, err
	}
	newAMI, err := cloud.RegisterImage(ctx, app+"-v2", "v2", upgrade.AppServices)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	spec := cl.UpgradeSpec(recordTask(i), newAMI)
	spec.NewLCName = fmt.Sprintf("%s-lc-%s", cl.ASGName, newAMI)
	if rep := up.Run(ctx, spec); rep.Err != nil {
		return nil, fmt.Errorf("set-up: recording upgrade of %s: %w", cl.ASGName, rep.Err)
	}
	return &clusterRec{cluster: cl, newAMI: newAMI, newLC: spec.NewLCName}, nil
}

// waitReady polls, every readyPoll of simulated time, until the cluster
// has all its instances InService behind its load balancer. It polls
// more slowly than Cluster.WaitReady so that many clusters booting at
// once stay under the API rate limit, and rides out throttling.
func waitReady(ctx context.Context, cloud *simaws.Cloud, cl *upgrade.Cluster) error {
	const readyPoll = 10 * time.Second
	clk := cloud.Clock()
	deadline := clk.Now().Add(30 * time.Minute)
	for clk.Now().Before(deadline) {
		if err := clk.Sleep(ctx, readyPoll); err != nil {
			return err
		}
		health, err := cloud.DescribeInstanceHealth(ctx, cl.ELBName)
		if err != nil {
			if simaws.IsRetryable(err) || simaws.IsNotFound(err) {
				continue
			}
			return fmt.Errorf("set-up: waiting for %s: %w", cl.ASGName, err)
		}
		ready := 0
		for _, h := range health {
			if h.State == "InService" {
				ready++
			}
		}
		if ready >= cl.Size {
			return nil
		}
	}
	return fmt.Errorf("set-up: cluster %s not ready", cl.ASGName)
}

// expectation is what an operation upgrading the cluster expects: the
// post-upgrade state the recorded upgrade left behind.
func (c *clusterRec) expectation() core.Expectation {
	return core.Expectation{
		ASGName:      c.cluster.ASGName,
		ELBName:      c.cluster.ELBName,
		NewImageID:   c.newAMI,
		NewVersion:   "v2",
		NewLCName:    c.newLC,
		OldLCName:    c.cluster.LCName,
		KeyName:      c.cluster.KeyName,
		SGName:       c.cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  c.cluster.Size,
	}
}
