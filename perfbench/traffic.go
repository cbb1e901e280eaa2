package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/process"
)

// actionKind is what the load generator does at one scheduled instant.
type actionKind int

const (
	actWatch     actionKind = iota // register the operation's session
	actFlip                        // inject the operation's fault into its cluster
	actLine                        // publish one operation line
	actNoise                       // publish one task-less noise line
	actFinish                      // judge the operation with the oracle
	actHeartbeat                   // renew one federation member's lease
	actTick                        // run the federation front's lease monitor
	actJoin                        // join the late federation member, rebalancing onto it
)

var actionNames = [...]string{"watch", "flip", "line", "noise", "finish", "heartbeat", "tick", "join"}

func (k actionKind) String() string { return actionNames[k] }

// action is one entry of the open-loop schedule. At is simulated time
// from the start of the measured phase.
type action struct {
	At     time.Duration
	Kind   actionKind
	Op     int    // operation index (watch, flip, line, finish)
	Line   int    // stream line index (line)
	Member int    // federation member index (heartbeat, join)
	Text   string // noise line text
}

// opPlan is one replayed operation.
type opPlan struct {
	Index   int              // position in traffic.Ops
	ID      string           // session id
	Task    string           // process instance id carried by every line
	Cluster int              // index into the account's clusters
	Fault   faultinject.Kind // zero for a clean operation
	Start   time.Duration    // offset of the first line
	Offsets []time.Duration  // offset of every stream line
	Expect  core.Expectation // what the session is told to expect
}

// last returns the offset of the operation's final line.
func (o *opPlan) last() time.Duration { return o.Offsets[len(o.Offsets)-1] }

// traffic is the generated input of one run: every operation and the
// time-ordered schedule that replays them.
type traffic struct {
	Ops         []*opPlan
	Actions     []action
	NoiseLines  int
	OpLines     int
	ChaosSeed   int64
	Fingerprint string
}

// Lead times, in simulated time: a session is registered before its
// first line, a fault is flipped before that, and the oracle judges an
// operation once its last line's assertions and diagnoses have had time
// to finish.
const (
	watchLead = 5 * time.Second
	flipLead  = 30 * time.Second
	phaseLead = 40 * time.Second
)

// streamBound bounds the length of a recorded upgrade of size instances
// (each replacement waits for a termination and a boot, at most about
// 4 min under PaperProfile). Operations arrive while one of that length
// would still be judged within the run, so how many arrive depends on
// the run length alone.
func streamBound(size int) time.Duration { return time.Duration(size)*4*time.Minute + time.Minute }

// noiseTemplates are operation-node lines that carry no task id and
// match no activity or error pattern of the rolling-upgrade model: the
// pipeline's noise filter must drop every one of them.
var noiseTemplates = []string{
	"Health check of web-%d returned 200 in %d ms",
	"Refreshed cached application list (%d entries, %d ms)",
	"Session cleanup removed %d idle sessions from node %d",
	"Metrics flush: %d samples written in %d ms",
	"User admin-%d viewed application page %d",
	"Cache hit ratio %d percent over the last %d requests",
}

// generate builds the run's traffic from the seed and the recorded
// streams: operation arrivals, cluster assignment, fault schedule, noise
// lines and federation events. The same seed and account give the same
// schedule and fingerprint.
func generate(w *workload, acct *account, seed int64, seconds float64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed ^ w.seedSalt()))
	horizon := time.Duration(seconds * w.Scale * float64(time.Second))
	t := &traffic{ChaosSeed: rng.Int63()}
	// The fingerprint hashes every choice the seed makes plus the step
	// structure of the recorded streams. The streams' gaps and instance
	// ids come from real upgrades on the scaled clock and vary with host
	// timing, so they are left out.
	h := sha256.New()
	fmt.Fprintf(h, "%s %g chaos %d\n", w.Name, seconds, t.ChaosSeed)
	for _, c := range acct.clusters {
		for _, l := range c.stream {
			fmt.Fprintf(h, "%s|", l.Step)
		}
		fmt.Fprintln(h)
	}
	model := process.RollingUpgradeModel()

	// Exclusive clusters (the faulty operations' own) follow the shared
	// ones; each is free again once its previous operation is judged.
	freeAt := make([]time.Duration, w.Clusters)
	kindBase := rng.Intn(4)
	nFaulty := 0
	for k, at := 0, phaseLead; ; k++ {
		at += w.Spacing
		faulty := w.FaultEvery > 0 && (k+w.FaultPhase)%w.FaultEvery == 0
		cl := -1
		if faulty {
			for i := w.Shared; i < w.Clusters; i++ {
				if freeAt[i] <= at-flipLead && (cl < 0 || freeAt[i] < freeAt[cl]) {
					cl = i
				}
			}
			if cl < 0 {
				return nil, fmt.Errorf("%s: no free exclusive cluster for operation %d; raise the account size", w.Name, k)
			}
		} else {
			cl = rng.Intn(w.Shared)
		}
		if at+streamBound(w.Size)+w.Grace > horizon {
			break
		}
		stream := acct.clusters[cl].stream
		op := &opPlan{
			Index:   k,
			ID:      fmt.Sprintf("op-%04d", k),
			Task:    fmt.Sprintf("pushing %s op-%04d", acct.clusters[cl].cluster.ASGName, k),
			Cluster: cl,
			Start:   at,
			Expect:  acct.clusters[cl].expectation(),
		}
		off := at
		for i, l := range stream {
			off += l.Gap
			if i > 0 && l.Gap == 0 {
				// Keep every line's timestamp distinct within its task:
				// the verdict is matched to its line by (task, timestamp).
				off += time.Microsecond
			}
			op.Offsets = append(op.Offsets, off)
		}
		if op.last() > at+streamBound(w.Size) {
			return nil, fmt.Errorf("recorded upgrade of %s lasts %v, longer than %v", acct.clusters[cl].cluster.ASGName, op.last()-at, streamBound(w.Size))
		}
		fmt.Fprintf(h, "op %d %s cluster %d at %d fault %v\n", k, op.Task, cl, at, faulty)
		if faulty {
			op.Fault = faultinject.Kind(1 + (kindBase+nFaulty)%4)
			nFaulty++
			freeAt[cl] = at + streamBound(w.Size) + w.Grace
			t.Actions = append(t.Actions, action{At: at - flipLead, Kind: actFlip, Op: k})
		}
		t.Ops = append(t.Ops, op)
		t.Actions = append(t.Actions,
			action{At: at - watchLead, Kind: actWatch, Op: k},
			action{At: op.last() + w.Grace, Kind: actFinish, Op: k})
		for i, o := range op.Offsets {
			t.Actions = append(t.Actions, action{At: o, Kind: actLine, Op: k, Line: i})
		}
		t.OpLines += len(op.Offsets)
		for n := w.NoisePerLine * len(op.Offsets); n > 0; n-- {
			text := fmt.Sprintf(noiseTemplates[rng.Intn(len(noiseTemplates))], rng.Intn(1000), rng.Intn(1000))
			if _, ok := model.Classify(text); ok || model.IsErrorLine(text) {
				return nil, fmt.Errorf("noise line %q matches the process model", text)
			}
			frac := rng.Float64() // where in the operation's lifetime the line falls
			t.Actions = append(t.Actions, action{At: op.Start + time.Duration(frac*float64(op.last()-op.Start)), Kind: actNoise, Op: k, Text: text})
			fmt.Fprintf(h, "noise %d %.6f %s\n", k, frac, text)
			t.NoiseLines++
		}
	}
	if len(t.Ops) == 0 {
		return nil, fmt.Errorf("%s: %.0f s is too short for one operation", w.Name, seconds)
	}
	if w.Federated {
		end := horizon
		for m := 0; m < w.Members; m++ {
			for at := time.Duration(m) * w.Heartbeat / time.Duration(w.Members); at < end; at += w.Heartbeat {
				t.Actions = append(t.Actions, action{At: at, Kind: actHeartbeat, Member: m})
			}
		}
		for at := time.Duration(0); at < end; at += w.LeaseTTL / 4 {
			t.Actions = append(t.Actions, action{At: at, Kind: actTick})
		}
		// The join point: a seeded instant in the middle of the run at
		// which the last member joins and the front rebalances onto it.
		join := time.Duration(float64(horizon) * (w.JoinAt + 0.1*rng.Float64()))
		t.Actions = append(t.Actions, action{At: join, Kind: actJoin, Member: w.Members - 1})
		fmt.Fprintf(h, "join %d\n", join)
	}
	sort.SliceStable(t.Actions, func(i, j int) bool { return t.Actions[i].At < t.Actions[j].At })
	t.Fingerprint = hex.EncodeToString(h.Sum(nil)[:16])
	return t, nil
}
