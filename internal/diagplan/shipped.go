package diagplan

import (
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

// planFS embeds the shipped plan documents: the blue/green deploy and
// spot-rebalance scenario plans under plans/, and the rolling-upgrade
// knowledge base (the paper's Figure 5, one plan per assertion) under
// plans/rollingupgrade/. Shipping them as JSON (not Go builders) keeps the
// production load path identical to the operator-authored one: parse,
// validate, walk.
//
//go:embed plans/*.json plans/rollingupgrade/*.json
var planFS embed.FS

// ScenarioPlans parses the embedded scenario plan documents — the
// diagnosis DAGs of the blue/green deploy and spot-rebalance scenarios —
// sorted by plan id.
func ScenarioPlans() []*Plan { return parseDir("plans") }

// DefaultCatalog parses the rolling-upgrade plan documents into a fresh
// catalog. Plan ids keep the "ft-" prefix of the fault trees they were
// written as, so flight-recorder paths and experiment attributions keyed
// by them keep resolving.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	for _, p := range parseDir("plans/rollingupgrade") {
		c.MustRegister(p)
	}
	return c
}

// FullCatalog extends DefaultCatalog with the scenario plans. Scenario
// plan nodes are scoped to bgstepN/ssstepN contexts, so rolling-upgrade
// diagnoses prune them away and vice versa.
func FullCatalog() *Catalog {
	c := DefaultCatalog()
	for _, p := range ScenarioPlans() {
		c.MustRegister(p)
	}
	return c
}

// PlanSources returns every raw embedded plan document keyed by its path
// below plans/ (e.g. "bluegreen.json", "rollingupgrade/ft-lc-exists.json")
// — the golden round-trip tests and podlint's self-check read them.
func PlanSources() map[string][]byte {
	out := make(map[string][]byte)
	err := fs.WalkDir(planFS, "plans", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := planFS.ReadFile(path)
		out[strings.TrimPrefix(path, "plans/")] = data
		return err
	})
	if err != nil {
		panic(fmt.Sprintf("diagplan: embedded plans: %v", err))
	}
	return out
}

// parseDir parses every plan document directly inside dir, sorted by plan
// id. The documents are validated at parse time; a broken shipped plan is
// a build defect, so errors panic.
func parseDir(dir string) []*Plan {
	entries, err := fs.ReadDir(planFS, dir)
	if err != nil {
		panic(fmt.Sprintf("diagplan: embedded plans: %v", err))
	}
	var out []*Plan
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := planFS.ReadFile(dir + "/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("diagplan: embedded plan %s/%s: %v", dir, e.Name(), err))
		}
		p, err := Parse(data)
		if err != nil {
			panic(fmt.Sprintf("diagplan: embedded plan %s/%s: %v", dir, e.Name(), err))
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
