package diagplan

import (
	"fmt"
	"sort"

	"poddiagnosis/internal/assertion"
)

// Catalog holds diagnosis plans, keyed by plan id and by assertion id.
// Several plans may serve one assertion; the diagnosis engine consults
// them all.
type Catalog struct {
	byID        map[string]*Plan
	byAssertion map[string][]*Plan
	order       []*Plan // registration order, for stable All() before sorting
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		byID:        make(map[string]*Plan),
		byAssertion: make(map[string][]*Plan),
	}
}

// Register adds a plan. Plan ids are the catalog key and must be unique.
func (c *Catalog) Register(p *Plan) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("diagplan: cannot register a plan without an id")
	}
	if _, dup := c.byID[p.ID]; dup {
		return fmt.Errorf("diagplan: duplicate plan id %q", p.ID)
	}
	c.byID[p.ID] = p
	c.byAssertion[p.AssertionID] = append(c.byAssertion[p.AssertionID], p)
	c.order = append(c.order, p)
	return nil
}

// MustRegister registers a plan and panics on error; built-in catalogs
// use it because a failure there is a programming bug.
func (c *Catalog) MustRegister(p *Plan) {
	if err := c.Register(p); err != nil {
		panic(err)
	}
}

// Get returns the plan with the given id, or nil.
func (c *Catalog) Get(id string) *Plan { return c.byID[id] }

// Select returns the plans for the given assertion id.
func (c *Catalog) Select(assertionID string) []*Plan {
	return append([]*Plan(nil), c.byAssertion[assertionID]...)
}

// All returns every registered plan, sorted by plan id for deterministic
// unscoped diagnoses.
func (c *Catalog) All() []*Plan {
	out := append([]*Plan(nil), c.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Validate validates every plan in the catalog against the registry.
func (c *Catalog) Validate(reg *assertion.Registry) error {
	for _, p := range c.All() {
		if err := p.Validate(reg); err != nil {
			return err
		}
	}
	return nil
}
