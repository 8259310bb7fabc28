package cv

import (
	"reflect"
	"runtime"
	"testing"

	"monitorless/internal/ml"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

func forestFactory(seed int64) Factory {
	return func(params map[string]any) (ml.Classifier, error) {
		return forest.New(forest.Config{
			NumTrees:       Int(params, "n_estimators", 10),
			MinSamplesLeaf: 2,
			Criterion:      tree.Entropy,
			Seed:           seed,
		}), nil
	}
}

// atGOMAXPROCS runs f with the given GOMAXPROCS, restoring it afterwards.
// The pool sizes itself at call time, so this changes the fan-out width of
// every parallel loop under test.
func atGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestCrossValidateDeterministicAcrossGOMAXPROCS is the regression test
// behind the PR's core guarantee: for a fixed seed, the parallel fold
// evaluation returns bit-identical results at any pool width.
func TestCrossValidateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	fr := synthFrame(6, 40, 8, 11)
	run := func() Result {
		r, err := CrossValidateFrame(forestFactory(7), map[string]any{"n_estimators": 10}, fr, nil, 3)
		if err != nil {
			t.Fatalf("CrossValidateFrame: %v", err)
		}
		return r
	}
	var narrow, wide Result
	atGOMAXPROCS(1, func() { narrow = run() })
	atGOMAXPROCS(8, func() { wide = run() })
	if !reflect.DeepEqual(narrow, wide) {
		t.Errorf("CrossValidateFrame differs across GOMAXPROCS:\n 1: %+v\n 8: %+v", narrow, wide)
	}
}

func TestGridSearchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	fr := synthFrame(6, 30, 6, 13)
	grid := Grid{"n_estimators": []any{4, 8, 12}}
	run := func() []Result {
		rs, err := GridSearchFrame(forestFactory(3), grid, fr, nil, 3)
		if err != nil {
			t.Fatalf("GridSearchFrame: %v", err)
		}
		return rs
	}
	var narrow, wide []Result
	atGOMAXPROCS(1, func() { narrow = run() })
	atGOMAXPROCS(8, func() { wide = run() })
	if !reflect.DeepEqual(narrow, wide) {
		t.Errorf("GridSearchFrame ranking differs across GOMAXPROCS:\n 1: %+v\n 8: %+v", narrow, wide)
	}
}

// TestCrossValidateErrorDeterministic asserts the parallel loop reports
// the same (lowest-fold) error the serial loop would have stopped at.
func TestCrossValidateErrorDeterministic(t *testing.T) {
	fr := synthFrame(6, 10, 4, 17)
	// A factory whose classifiers fail to fit: every fold errors; the
	// reported message must be stable across pool widths.
	factory := func(map[string]any) (ml.Classifier, error) {
		return nil, errTest
	}
	var msg1, msg8 string
	atGOMAXPROCS(1, func() {
		_, err := CrossValidateFrame(factory, nil, fr, nil, 3)
		msg1 = err.Error()
	})
	atGOMAXPROCS(8, func() {
		_, err := CrossValidateFrame(factory, nil, fr, nil, 3)
		msg8 = err.Error()
	})
	if msg1 != msg8 {
		t.Errorf("error differs across GOMAXPROCS: %q vs %q", msg1, msg8)
	}
}

var errTest = errFactory("factory exploded")

type errFactory string

func (e errFactory) Error() string { return string(e) }
