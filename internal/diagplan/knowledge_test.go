package diagplan_test

import (
	"sort"
	"strings"
	"testing"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/process"
)

// The tests below pin the knowledge the rolling-upgrade plan documents
// encode (the paper's Figure 5 and its §VI.A amendments).

// causeIDs lists the cause node ids a plan's walk would visit, in order.
func causeIDs(p *diagplan.Plan) string {
	var ids []string
	for _, c := range p.PotentialRootCauses() {
		ids = append(ids, c.ID)
	}
	return strings.Join(ids, " ")
}

// findCause returns the cause node with the given id reachable in p.
func findCause(p *diagplan.Plan, id string) *diagplan.Node {
	for _, c := range p.PotentialRootCauses() {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// childIDs lists the ids of n's children in p, in visit order.
func childIDs(p *diagplan.Plan, n *diagplan.Node) []string {
	var ids []string
	for _, c := range p.Children(n) {
		ids = append(ids, c.ID)
	}
	return ids
}

// versionCount returns the ft-version-count plan of the default catalog.
func versionCount(t *testing.T) *diagplan.Plan {
	t.Helper()
	p := diagplan.DefaultCatalog().Get("ft-version-count")
	if p == nil {
		t.Fatal("ft-version-count missing")
	}
	return p
}

func TestDefaultRepositoryValidates(t *testing.T) {
	cat := diagplan.DefaultCatalog()
	if err := cat.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
	if got := len(cat.All()); got != 10 {
		t.Errorf("plan count = %d", got)
	}
}

func TestDefaultCatalogParity(t *testing.T) {
	cat := diagplan.DefaultCatalog()
	want := []string{
		"ft-asg-uses-ami", "ft-asg-uses-instance-type", "ft-asg-uses-keypair", "ft-asg-uses-sg",
		"ft-elb-count", "ft-elb-reachable", "ft-instance-count", "ft-instance-version",
		"ft-lc-exists", "ft-version-count",
	}
	var got []string
	for _, p := range cat.All() {
		got = append(got, p.ID)
		if cat.Get(p.ID) != p {
			t.Errorf("Get(%s) does not return the registered plan", p.ID)
		}
		if len(cat.Select(p.AssertionID)) == 0 {
			t.Errorf("Select(%s) empty", p.AssertionID)
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("plan ids = %v, want %v", got, want)
	}
}

func TestSelectByAssertion(t *testing.T) {
	cat := diagplan.DefaultCatalog()
	for _, p := range cat.All() {
		sel := cat.Select(p.AssertionID)
		if len(sel) != 1 || sel[0] != p {
			t.Errorf("Select(%s) = %d plans, want only %s", p.AssertionID, len(sel), p.ID)
		}
	}
	if sel := cat.Select(assertion.CheckASGVersionCount); len(sel) != 1 || sel[0].ID != "ft-version-count" {
		t.Errorf("Select(%s) = %v", assertion.CheckASGVersionCount, sel)
	}
	if len(cat.Select("unknown-assertion")) != 0 {
		t.Error("unknown assertion selected plans")
	}
}

func TestInstantiateSubstitutesParams(t *testing.T) {
	p := versionCount(t)
	inst := p.Instantiate(assertion.Params{
		assertion.ParamASG: "ASG-dsn", assertion.ParamWant: "4",
		assertion.ParamVersion: "v2", assertion.ParamAMI: "ami-750c9e4f",
	})
	if got := inst.EntryNode().Description; !strings.Contains(got, "4 instances with version v2") {
		t.Errorf("entry description = %q", got)
	}
	var found bool
	for _, n := range inst.Nodes {
		found = found || strings.Contains(n.Description, "ASG-dsn")
		if strings.Contains(n.Description, "{asgid}") {
			t.Errorf("unsubstituted placeholder in %q", n.Description)
		}
	}
	if !found {
		t.Error("asg name not substituted anywhere")
	}
	if !strings.Contains(p.EntryNode().Description, "{want}") {
		t.Error("Instantiate mutated the original plan")
	}
}

func TestAccountLimitCauseExists(t *testing.T) {
	// The §VI.A amendment: account-limit-reached must be diagnosable.
	c := findCause(versionCount(t), "account-limit-reached")
	if c == nil {
		t.Fatal("account-limit-reached cause missing")
	}
	if c.CheckID != assertion.CheckNoLimitExceeded {
		t.Errorf("account-limit cause check = %q", c.CheckID)
	}
}

func TestTerminationLeafUsesAuditTrailCheck(t *testing.T) {
	// The fault is diagnosable only through the CloudTrail-like audit
	// trail; with the trail disabled (the default) the check is
	// inconclusive and the leaf can only be suspected, as in the paper.
	c := findCause(diagplan.DefaultCatalog().Select(assertion.CheckASGInstanceCount)[0], "unexpected-termination-ic")
	if c == nil {
		t.Fatal("unexpected-termination leaf missing")
	}
	if c.CheckID != assertion.CheckNoExternalTermination {
		t.Errorf("check = %q", c.CheckID)
	}
}

func TestPruneByStepContext(t *testing.T) {
	p := versionCount(t)
	// In step2 context only the LC-creation and wrong-config sub-trees
	// survive.
	pruned := p.Prune(process.StepUpdateLC)
	if got := childIDs(pruned, pruned.EntryNode()); strings.Join(got, " ") != "lc-create-failed asg-wrong-config" {
		t.Errorf("step2 children = %v", got)
	}
	// In step7 context everything but LC creation survives.
	pruned = p.Prune(process.StepNewReady)
	if got := childIDs(pruned, pruned.EntryNode()); strings.Join(got, " ") != "asg-wrong-config instance-launch-failed instance-count-dropped elb-problems" {
		t.Errorf("step7 children = %v", got)
	}
	// Unknown context keeps everything.
	pruned = p.Prune("")
	if got := len(childIDs(pruned, pruned.EntryNode())); got != 5 {
		t.Errorf("empty-step prune kept %d entry children", got)
	}
	// Original untouched.
	if len(p.Nodes) != 21 || len(p.EntryNode().Edges) != 5 {
		t.Errorf("Prune mutated the original: %d nodes, %d entry edges", len(p.Nodes), len(p.EntryNode().Edges))
	}
}

func TestPotentialRootCausesOrdering(t *testing.T) {
	// Causes are visited by descending edge probability, sub-tree by
	// sub-tree: within wrong-config, wrong-sg (0.35) comes before
	// wrong-ami (0.25) before wrong-instance-type (0.10).
	const want = "lc-ami-unavailable lc-keypair-unavailable lc-sg-unavailable wrong-sg wrong-keypair wrong-ami wrong-instance-type launch-ami-unavailable launch-keypair-unavailable launch-sg-unavailable account-limit-reached simultaneous-scale-in unexpected-termination elb-unreachable instance-not-registered"
	if got := causeIDs(versionCount(t)); got != want {
		t.Errorf("causes:\n got %s\nwant %s", got, want)
	}
}

func TestCompilePreservesPruning(t *testing.T) {
	// The root-cause order of every step context, as the rolling-upgrade
	// fault-tree compiler produced it.
	p := versionCount(t)
	for _, tc := range []struct{ step, want string }{
		{"", "lc-ami-unavailable lc-keypair-unavailable lc-sg-unavailable wrong-sg wrong-keypair wrong-ami wrong-instance-type launch-ami-unavailable launch-keypair-unavailable launch-sg-unavailable account-limit-reached simultaneous-scale-in unexpected-termination elb-unreachable instance-not-registered"},
		{process.StepUpdateLC, "lc-ami-unavailable lc-keypair-unavailable lc-sg-unavailable wrong-sg wrong-keypair wrong-ami wrong-instance-type"},
		{process.StepTerminateOld, "simultaneous-scale-in unexpected-termination elb-unreachable instance-not-registered"},
		{process.StepNewReady, "wrong-sg wrong-keypair wrong-ami wrong-instance-type launch-ami-unavailable launch-keypair-unavailable launch-sg-unavailable account-limit-reached simultaneous-scale-in unexpected-termination elb-unreachable instance-not-registered"},
		{process.StepCompleted, "wrong-sg wrong-keypair wrong-ami wrong-instance-type launch-ami-unavailable launch-keypair-unavailable launch-sg-unavailable account-limit-reached simultaneous-scale-in unexpected-termination elb-unreachable instance-not-registered"},
		{process.StepBGJoined, ""},
	} {
		if got := causeIDs(p.Prune(tc.step)); got != tc.want {
			t.Errorf("step %q causes:\n got %s\nwant %s", tc.step, got, tc.want)
		}
	}
}

func TestCompilePreservesStructure(t *testing.T) {
	p := versionCount(t)
	if p.AssertionID != assertion.CheckASGVersionCount || p.Entry != "version-count-violated" {
		t.Fatalf("plan header = %s/%s/%s", p.ID, p.AssertionID, p.Entry)
	}
	if err := p.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	// Sibling visit order under the entry follows the priors.
	if got := childIDs(p, p.EntryNode()); strings.Join(got, " ") != "lc-create-failed asg-wrong-config instance-launch-failed instance-count-dropped elb-problems" {
		t.Fatalf("entry children = %v", got)
	}
	// The fault tree's root is the entry, its root causes are causes,
	// its checked interiors are tests.
	if p.EntryNode().Kind != diagplan.KindEntry {
		t.Fatal("root should be the entry")
	}
	if n := p.Node("wrong-ami"); n == nil || n.Kind != diagplan.KindCause {
		t.Fatalf("wrong-ami kind = %v", n)
	}
	if n := p.Node("elb-problems"); n == nil || n.Kind != diagplan.KindTest {
		t.Fatalf("elb-problems kind = %v", n)
	}
}

func TestFullCatalogAddsScenarios(t *testing.T) {
	full := diagplan.FullCatalog()
	if err := full.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"plan-bluegreen", "plan-bluegreen-elb", "plan-bluegreen-lc", "plan-spot-rebalance", "ft-version-count"} {
		if full.Get(id) == nil {
			t.Fatalf("FullCatalog missing %s", id)
		}
	}
	// Scenario and rolling-upgrade plans select on the same assertion ids
	// but are disjoint under step pruning.
	for _, tc := range []struct{ step, live, dead string }{
		{"step3", "ft-version-count", "plan-bluegreen"},
		{"bgstep4", "plan-bluegreen", "ft-version-count"},
	} {
		if causeIDs(full.Get(tc.live).Prune(tc.step)) == "" {
			t.Errorf("%s lost its causes under %s", tc.live, tc.step)
		}
		if got := causeIDs(full.Get(tc.dead).Prune(tc.step)); got != "" {
			t.Errorf("%s keeps causes under %s: %s", tc.dead, tc.step, got)
		}
	}
}

// TestExpectedRootCausesReachable: every cause the experiment harness
// accepts as a correct diagnosis of an injected fault is a cause node the
// rolling-upgrade catalog can actually reach.
func TestExpectedRootCausesReachable(t *testing.T) {
	reachable := make(map[string]bool)
	for _, p := range diagplan.DefaultCatalog().All() {
		for _, c := range p.PotentialRootCauses() {
			reachable[c.ID] = true
		}
	}
	for _, k := range faultinject.AllKinds() {
		for _, base := range k.ExpectedRootCauses() {
			found := false
			for id := range reachable {
				found = found || id == base || strings.HasPrefix(id, base+"-")
			}
			if !found {
				t.Errorf("%s: expected root cause %q is no reachable cause node", k, base)
			}
		}
	}
}
