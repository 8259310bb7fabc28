package tree

import (
	"strings"
	"testing"
)

func TestRulesFromStump(t *testing.T) {
	x := [][]float64{{0}, {0.2}, {0.8}, {1}}
	y := []int{0, 0, 1, 1}
	tr := New(Config{MaxDepth: 1, MinSamplesLeaf: 1})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	rules := tr.Rules([]string{"C-CPU-U"})
	if len(rules) != 2 {
		t.Fatalf("stump yields %d rules, want 2", len(rules))
	}
	var sat, unsat *Rule
	for i := range rules {
		if rules[i].Saturated {
			sat = &rules[i]
		} else {
			unsat = &rules[i]
		}
	}
	if sat == nil || unsat == nil {
		t.Fatal("expected one saturated and one non-saturated rule")
	}
	if !strings.Contains(sat.String(), "C-CPU-U >") {
		t.Errorf("saturated rule %q should test C-CPU-U above the split", sat)
	}
	if !strings.Contains(unsat.String(), "C-CPU-U <=") {
		t.Errorf("non-saturated rule %q should test C-CPU-U below the split", unsat)
	}
}

func TestRulesCoverAllLeavesAndDoNotAlias(t *testing.T) {
	// Deeper tree: rule conditions must not leak between sibling paths
	// (a classic append-aliasing bug). AND-shaped labels force two levels.
	x := [][]float64{
		{0, 0}, {0, 1}, {1, 0}, {1, 1},
		{0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1}, {0.9, 0.9},
	}
	y := []int{0, 0, 0, 1, 0, 0, 0, 1} // a AND b
	tr := New(Config{MinSamplesLeaf: 1})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	rules := tr.Rules([]string{"a", "b"})
	if len(rules) < 3 {
		t.Fatalf("XOR tree yields %d rules, want >= 3", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		s := r.String()
		if seen[s] {
			t.Fatalf("duplicate rule %q (condition aliasing?)", s)
		}
		seen[s] = true
		if r.Prob < 0 || r.Prob > 1 {
			t.Fatalf("rule probability %v out of range", r.Prob)
		}
	}
}

func TestRulesFallbackNames(t *testing.T) {
	x := [][]float64{{0, 1}, {1, 0}, {0, 0}, {1, 1}}
	y := []int{0, 1, 0, 1}
	tr := New(Config{MaxDepth: 1, MinSamplesLeaf: 1})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	rules := tr.Rules(nil) // no names provided
	for _, r := range rules {
		for _, c := range r.Conditions {
			if !strings.HasPrefix(c, "f") {
				t.Errorf("condition %q should use fallback f<i> names", c)
			}
		}
	}
}

func TestRulesUnfitted(t *testing.T) {
	if rules := New(Config{}).Rules(nil); rules != nil {
		t.Errorf("unfitted tree yielded rules: %v", rules)
	}
}

func TestRuleStringAlwaysLeaf(t *testing.T) {
	// A pure training set yields a single leaf whose rule has no
	// conditions and renders as "IF always ...".
	x := [][]float64{{1}, {2}}
	y := []int{1, 1}
	tr := New(Config{})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	rules := tr.Rules([]string{"m"})
	if len(rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(rules))
	}
	if !strings.Contains(rules[0].String(), "IF always THEN SATURATED") {
		t.Errorf("rule = %q", rules[0])
	}
}
