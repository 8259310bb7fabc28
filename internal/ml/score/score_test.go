package score

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountBasic(t *testing.T) {
	pred := []int{1, 0, 1, 0, 1}
	truth := []int{1, 0, 0, 1, 1}
	c, err := Count(pred, truth)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	want := Confusion{TP: 2, TN: 1, FP: 1, FN: 1}
	if c != want {
		t.Errorf("got %+v, want %+v", c, want)
	}
}

func TestCountLengthMismatch(t *testing.T) {
	if _, err := Count([]int{1}, []int{1, 0}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := CountLagged([]int{1}, []int{1, 0}, 2); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestCountLaggedNegativeK(t *testing.T) {
	if _, err := CountLagged([]int{1}, []int{1}, -1); err == nil {
		t.Error("expected negative-lag error")
	}
}

func TestCountLaggedZeroEqualsPlain(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = r.Intn(2)
			truth[i] = r.Intn(2)
		}
		a, err1 := Count(pred, truth)
		b, err2 := CountLagged(pred, truth, 0)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountLaggedEarlyPositiveForgiven(t *testing.T) {
	// Prediction fires one second before the ground truth goes saturated:
	// the paper re-classifies the would-be FP as TN₂.
	pred := []int{0, 1, 1, 0}
	truth := []int{0, 0, 1, 0}
	c, err := CountLagged(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FP != 0 {
		t.Errorf("FP = %d, want 0 (early warning forgiven)", c.FP)
	}
	if c.TN != 3 { // t=0 and t=3 plain TN, t=1 reclassified TN
		t.Errorf("TN = %d, want 3", c.TN)
	}
	if c.TP != 1 {
		t.Errorf("TP = %d, want 1", c.TP)
	}
}

func TestCountLaggedMissForgivenAfterEarlyWarning(t *testing.T) {
	// The classifier warned at t=1, truth goes saturated at t=2 and the
	// classifier has already dropped: the FN at t=2 becomes TP₂.
	pred := []int{0, 1, 0, 0}
	truth := []int{0, 0, 1, 0}
	c, err := CountLagged(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FN != 0 {
		t.Errorf("FN = %d, want 0", c.FN)
	}
	if c.TP != 1 {
		t.Errorf("TP = %d, want 1 (transferred early warning)", c.TP)
	}
}

func TestCountLaggedLatePredictionStillWrong(t *testing.T) {
	// Prediction only fires *after* saturation was observed: stays wrong.
	pred := []int{0, 0, 0, 1}
	truth := []int{0, 1, 0, 0}
	c, err := CountLagged(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FN != 1 {
		t.Errorf("FN = %d, want 1 (late prediction is not forgiven)", c.FN)
	}
	if c.FP != 1 {
		t.Errorf("FP = %d, want 1 (no upcoming saturation within k)", c.FP)
	}
}

func TestCountLaggedBeyondWindowNotForgiven(t *testing.T) {
	// Early warning 3 samples ahead with k=2: too early, stays FP.
	pred := []int{1, 0, 0, 0}
	truth := []int{0, 0, 0, 1}
	c, err := CountLagged(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FP != 1 {
		t.Errorf("FP = %d, want 1 (warning outside the k-window)", c.FP)
	}
}

func TestConfusionTotalsPreserved(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = r.Intn(2)
			truth[i] = r.Intn(2)
		}
		k := r.Intn(4)
		c, err := CountLagged(pred, truth, k)
		return err == nil && c.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: lagging can only improve (or preserve) accuracy and F1.
func TestLaggedNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(150)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = r.Intn(2)
			truth[i] = r.Intn(2)
		}
		plain, err1 := Count(pred, truth)
		lag, err2 := CountLagged(pred, truth, 2)
		if err1 != nil || err2 != nil {
			return false
		}
		return lag.Accuracy() >= plain.Accuracy()-1e-12 && lag.F1() >= plain.F1()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsFormulas(t *testing.T) {
	c := Confusion{TP: 8, TN: 5, FP: 2, FN: 1}
	if got, want := c.Accuracy(), 13.0/16.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Accuracy = %v, want %v", got, want)
	}
	if got, want := c.F1(), 16.0/19.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, want)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.F1() != 0 {
		t.Error("zero matrix should yield zero metrics, not NaN")
	}
}

func TestMajorityPredictorF1(t *testing.T) {
	// The paper's Table 3 footnote: predicting all-saturated on a 75%-
	// saturated validation set scores F1 = 0.857.
	n := 1000
	pred := make([]int, n)
	truth := make([]int, n)
	for i := range pred {
		pred[i] = 1
		if i < 750 {
			truth[i] = 1
		}
	}
	c, err := Count(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.F1()-0.857) > 0.001 {
		t.Errorf("majority-label F1 = %v, want ~0.857 (paper's footnote)", c.F1())
	}
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1, TN: 2, FP: 3, FN: 4}.String()
	for _, frag := range []string{"TN=2", "FP=3", "FN=4", "TP=1", "F1=", "Acc="} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
