package diagplan

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"poddiagnosis/internal/assertion"
)

// small hand-built plan with a fan-in: entry -> a, b; a -> cause-x; b -> cause-x, cause-y.
func fanInPlan(t testing.TB) *Plan {
	t.Helper()
	p := &Plan{
		ID:          "plan-test",
		AssertionID: "asg-instance-count",
		Description: "test plan",
		Entry:       "entry",
		Nodes: []*Node{
			{ID: "entry", Kind: KindEntry, Description: "violated", Edges: []Edge{
				{To: "a", Prob: 0.6}, {To: "b", Prob: 0.4},
			}},
			{ID: "a", Kind: KindCollector, Description: "branch a", CheckID: "asg-instance-count",
				Steps: []string{"step1"}, Edges: []Edge{{To: "cause-x", Prob: 0.9}}},
			{ID: "b", Kind: KindCollector, Description: "branch b", CheckID: "no-failed-launches",
				Steps: []string{"step1", "step2"}, Edges: []Edge{
					{To: "cause-x", Prob: 0.5}, {To: "cause-y", Prob: 0.3},
				}},
			{ID: "cause-x", Kind: KindCause, Description: "cause x on {asgid}", CheckID: "ami-available"},
			{ID: "cause-y", Kind: KindCause, Description: "cause y", CheckID: "sg-exists"},
		},
	}
	if err := p.Validate(nil); err != nil {
		t.Fatalf("fan-in plan invalid: %v", err)
	}
	return p
}

func TestValidateRejectsCycles(t *testing.T) {
	p := fanInPlan(t)
	// Introduce a back-edge cause-x -> a, turning the DAG into a cycle.
	n := p.Node("cause-x")
	n.Kind = KindCollector
	n.Edges = []Edge{{To: "a", Prob: 0.5}}
	err := p.Validate(nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *Plan)
		want string
	}{
		{"missing entry", func(p *Plan) { p.Entry = "nope" }, "entry"},
		{"entry with check", func(p *Plan) { p.Node("entry").CheckID = "asg-instance-count" }, "entry"},
		{"edge into entry", func(p *Plan) {
			p.Node("a").Edges = append(p.Node("a").Edges, Edge{To: "entry", Prob: 0.1})
		}, "entry"},
		{"unknown kind", func(p *Plan) { p.Node("a").Kind = "widget" }, "kind"},
		{"cause with edges", func(p *Plan) {
			p.Node("cause-y").Edges = []Edge{{To: "cause-x", Prob: 0.2}}
		}, "cause"},
		{"dangling edge", func(p *Plan) { p.Node("b").Edges[0].To = "ghost" }, "ghost"},
		{"duplicate edge", func(p *Plan) {
			p.Node("a").Edges = append(p.Node("a").Edges, Edge{To: "cause-x", Prob: 0.1})
		}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := fanInPlan(t)
			tc.mut(p)
			err := p.Validate(nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

// TestValidateRejectsBadTrees covers the node-level faults of a
// hand-written fault tree: no nodes, empty or duplicate ids, a root
// cause with children and an unknown check.
func TestValidateRejectsBadTrees(t *testing.T) {
	reg := assertion.DefaultRegistry()
	cases := []struct {
		name string
		mut  func(p *Plan)
	}{
		{"no nodes", func(p *Plan) { p.Nodes = nil }},
		{"empty node id", func(p *Plan) { p.Node("cause-y").ID = "" }},
		{"duplicate node id", func(p *Plan) { p.Node("cause-y").ID = "cause-x" }},
		{"root cause with children", func(p *Plan) {
			p.Node("cause-x").Edges = []Edge{{To: "cause-y", Prob: 0.5}}
		}},
		{"unknown check", func(p *Plan) { p.Node("cause-y").CheckID = "no-such-check" }},
	}
	for _, tc := range cases {
		p := fanInPlan(t)
		tc.mut(p)
		if err := p.Validate(reg); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
	}
}

func TestValidateUnknownCheck(t *testing.T) {
	p := fanInPlan(t)
	p.Node("a").CheckID = "no-such-check"
	if err := p.Validate(assertion.DefaultRegistry()); err == nil {
		t.Fatal("expected unknown check error")
	}
}

func TestParentsAndCausesUnder(t *testing.T) {
	p := fanInPlan(t)
	got := p.Parents("cause-x")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Parents(cause-x) = %v, want [a b]", got)
	}
	causes := p.CausesUnder("b")
	if len(causes) != 2 || causes[0] != "cause-x" || causes[1] != "cause-y" {
		t.Fatalf("CausesUnder(b) = %v", causes)
	}
	all := p.PotentialRootCauses()
	if len(all) != 2 {
		t.Fatalf("PotentialRootCauses = %v, want 2 unique causes", all)
	}
}

func TestPathToPrefersProbability(t *testing.T) {
	p := fanInPlan(t)
	// cause-x is reachable via a (0.6*0.9) and b (0.4*0.5); the preferred
	// path walks highest-probability edges first.
	if got := p.PathTo("cause-x"); got != "entry/a/cause-x" {
		t.Fatalf("PathTo(cause-x) = %q", got)
	}
	if got := p.PathTo("cause-y"); got != "entry/b/cause-y" {
		t.Fatalf("PathTo(cause-y) = %q", got)
	}
}

func TestPruneKeepsSharedReachable(t *testing.T) {
	p := fanInPlan(t)
	pruned := p.Prune("step2")
	// Only branch b is relevant to step2; a is dropped, but cause-x stays
	// reachable through b.
	if pruned.Has("a") {
		t.Fatal("a should be pruned for step2")
	}
	for _, id := range []string{"entry", "b", "cause-x", "cause-y"} {
		if !pruned.Has(id) {
			t.Fatalf("%s should survive prune", id)
		}
	}
	if err := pruned.Validate(nil); err != nil {
		t.Fatalf("pruned plan invalid: %v", err)
	}
	// Original untouched.
	if !p.Has("a") {
		t.Fatal("prune mutated the original plan")
	}
}

func TestPruneEmptyStepKeepsAll(t *testing.T) {
	p := fanInPlan(t)
	pruned := p.Prune("")
	if len(pruned.Nodes) != len(p.Nodes) {
		t.Fatalf("empty step prune dropped nodes: %d != %d", len(pruned.Nodes), len(p.Nodes))
	}
}

func TestInstantiate(t *testing.T) {
	p := fanInPlan(t)
	inst := p.Instantiate(assertion.Params{"asgid": "asg-1"})
	if got := inst.Node("cause-x").Description; got != "cause x on asg-1" {
		t.Fatalf("Instantiate description = %q", got)
	}
	if p.Node("cause-x").Description != "cause x on {asgid}" {
		t.Fatal("Instantiate mutated the original")
	}
}

func TestInstantiateLeavesUnknownPlaceholders(t *testing.T) {
	p := fanInPlan(t)
	if got := p.Instantiate(assertion.Params{"other": "x"}).Node("cause-x").Description; got != "cause x on {asgid}" {
		t.Fatalf("unknown placeholder description = %q", got)
	}
}

func TestChildrenOrderedByProbability(t *testing.T) {
	p := fanInPlan(t)
	kids := p.Children(p.Node("entry"))
	if len(kids) != 2 || kids[0].ID != "a" || kids[1].ID != "b" {
		t.Fatalf("Children(entry) order wrong: %+v", kids)
	}
}

func TestSortedChildrenStable(t *testing.T) {
	// Ties keep document order, and the node's own edges are untouched.
	n := &Node{ID: "n", Edges: []Edge{{To: "a", Prob: 0.2}, {To: "b", Prob: 0.5}, {To: "c", Prob: 0.2}, {To: "d", Prob: 0.9}}}
	tie := &Plan{ID: "tie", Entry: "n", Nodes: []*Node{n, {ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}}}
	var got []string
	for _, c := range tie.Children(n) {
		got = append(got, c.ID)
	}
	if strings.Join(got, ",") != "d,b,a,c" {
		t.Fatalf("tie order = %v, want [d b a c]", got)
	}
	if n.Edges[0].To != "a" {
		t.Fatal("Children reordered the node's edges")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := fanInPlan(t)
	p.Node("a").CheckParams = assertion.Params{"k": "v"}
	cp := p.Clone()
	cp.Node("a").CheckParams["k"] = "changed"
	cp.Node("a").Steps[0] = "changed"
	cp.Node("a").Edges[0].To = "changed"
	a := p.Node("a")
	if a.CheckParams["k"] != "v" || a.Steps[0] != "step1" || a.Edges[0].To != "cause-x" {
		t.Fatal("Clone aliases state")
	}
}

func TestRelevantToProperty(t *testing.T) {
	// Property: a node is always relevant to the empty step; an unscoped
	// node is relevant to any step; a scoped node is relevant exactly to
	// its steps.
	f := func(steps []string, probe string) bool {
		n := &Node{ID: "x", Steps: steps}
		if !n.RelevantTo("") {
			return false
		}
		if probe == "" || len(steps) == 0 {
			return n.RelevantTo(probe)
		}
		want := false
		for _, s := range steps {
			if s == probe {
				want = true
			}
		}
		return n.RelevantTo(probe) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Every shipped plan document round-trips byte-stable through
// load -> validate -> render -> reload.
func TestGoldenRoundTrip(t *testing.T) {
	reg := assertion.DefaultRegistry()
	sources := PlanSources()
	if len(sources) != 14 {
		t.Fatalf("embedded plan documents = %d, want 4 scenario + 10 rolling-upgrade", len(sources))
	}
	for name, data := range sources {
		t.Run(name, func(t *testing.T) {
			p, err := Parse(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := p.Validate(reg); err != nil {
				t.Fatalf("validate: %v", err)
			}
			out, err := p.Render()
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("shipped %s is not canonical; run it through Render", name)
			}
			p2, err := Parse(out)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			out2, err := p2.Render()
			if err != nil {
				t.Fatalf("re-render: %v", err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatal("render is not a fixed point")
			}
		})
	}
}

func TestScenarioPlansLoad(t *testing.T) {
	plans := ScenarioPlans()
	if len(plans) != 4 {
		t.Fatalf("expected 4 scenario plans, got %d", len(plans))
	}
	want := []string{"plan-bluegreen", "plan-bluegreen-elb", "plan-bluegreen-lc", "plan-spot-rebalance"}
	for i, p := range plans {
		if p.ID != want[i] {
			t.Fatalf("plan %d = %s, want %s", i, p.ID, want[i])
		}
	}
	// The blue/green and spot plans share collector sub-graphs: the same
	// launch-failure causes appear under multiple plans and, inside
	// plan-bluegreen, under multiple parents (fan-in).
	bg := plans[0]
	if got := bg.Parents("launch-ami-unavailable"); len(got) < 2 {
		t.Fatalf("launch-ami-unavailable should have fan-in parents, got %v", got)
	}
	spot := plans[3]
	if got := spot.Parents("account-limit-reached"); len(got) != 2 {
		t.Fatalf("spot account-limit-reached parents = %v", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	for _, p := range ScenarioPlans() {
		c.MustRegister(p)
	}
	if err := c.Register(ScenarioPlans()[0]); err == nil {
		t.Fatal("duplicate plan id should be rejected")
	}
	if got := len(c.Select("asg-version-count")); got != 1 {
		t.Fatalf("Select(asg-version-count) = %d plans", got)
	}
	if got := len(c.All()); got != 4 {
		t.Fatalf("All() = %d", got)
	}
	if err := c.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatalf("catalog validate: %v", err)
	}
}

func TestDOTRender(t *testing.T) {
	dot := fanInPlan(t).DOT()
	for _, want := range []string{"digraph", "doubleoctagon", "cause-x", "0.90"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
