package core

import (
	"strings"
	"testing"
)

func TestDistillReadableRules(t *testing.T) {
	m, ds := sharedModel(t)
	rules, _, err := m.Distill(ds.Frame(), 3)
	if err != nil {
		t.Fatalf("Distill: %v", err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules distilled")
	}
	// At least one saturation rule, rendered with real feature names.
	foundSat := false
	for _, r := range rules {
		if r.Saturated {
			foundSat = true
			if len(r.Conditions) == 0 {
				continue
			}
			if strings.Contains(r.Conditions[0], "f0") {
				t.Errorf("rule uses fallback names: %q", r)
			}
		}
	}
	if !foundSat {
		t.Error("no saturation rule in the distillation")
	}
	// Rules are sorted: saturation rules first.
	if !rules[0].Saturated {
		t.Error("saturation rules should sort first")
	}
}

func TestDistillFidelityGrowsWithDepth(t *testing.T) {
	m, ds := sharedModel(t)
	raw := ds.Frame()
	_, shallow, err := m.Distill(raw, 2)
	if err != nil {
		t.Fatalf("Distill: %v", err)
	}
	_, deep, err := m.Distill(raw, 6)
	if err != nil {
		t.Fatal(err)
	}
	if shallow < 0.7 {
		t.Errorf("depth-2 fidelity %.2f, want a faithful surrogate (CPU rules explain most of the model)", shallow)
	}
	if deep < shallow-1e-9 {
		t.Errorf("deeper surrogate less faithful: %.3f vs %.3f", deep, shallow)
	}
}
