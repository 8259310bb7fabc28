// Package score implements the evaluation metrics of the paper: the plain
// confusion matrix with accuracy and F1 (Sørensen-Dice), and the *lagged*
// variants TPₖ/TNₖ/FPₖ/FNₖ, F1ₖ and Accₖ defined in §4 to cope with the
// monitoring delay between platform metrics and the ground-truth KPI.
package score

import "fmt"

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, TN, FP, FN int
}

// Count tallies prediction/truth pairs (both 0/1 series of equal length).
func Count(pred, truth []int) (Confusion, error) {
	if len(pred) != len(truth) {
		return Confusion{}, fmt.Errorf("score: %d predictions vs %d labels", len(pred), len(truth))
	}
	var c Confusion
	for i := range pred {
		switch {
		case pred[i] == 1 && truth[i] == 1:
			c.TP++
		case pred[i] == 0 && truth[i] == 0:
			c.TN++
		case pred[i] == 1 && truth[i] == 0:
			c.FP++
		default:
			c.FN++
		}
	}
	return c, nil
}

// CountLagged tallies the paper's lagged confusion counts with lag k:
//
//   - a false positive at time t whose ground truth turns saturated within
//     (t, t+k] is re-classified as a true negative TNₖ (the early warning
//     was correct, just ahead of the sluggish KPI);
//   - a false negative at time t preceded by a positive prediction within
//     [t−k, t) is re-classified as a true positive TPₖ;
//   - late predictions (after saturation was already observed) stay wrong.
//
// The paper evaluates with k=2 because its peak response times are bounded
// by the 3-second load-generator timeout.
func CountLagged(pred, truth []int, k int) (Confusion, error) {
	if len(pred) != len(truth) {
		return Confusion{}, fmt.Errorf("score: %d predictions vs %d labels", len(pred), len(truth))
	}
	if k < 0 {
		return Confusion{}, fmt.Errorf("score: negative lag %d", k)
	}
	var c Confusion
	for t := range pred {
		switch {
		case pred[t] == 1 && truth[t] == 1:
			c.TP++
		case pred[t] == 0 && truth[t] == 0:
			c.TN++
		case pred[t] == 1 && truth[t] == 0:
			// FP unless a ground-truth saturation follows within k samples.
			reclassified := false
			for dt := 1; dt <= k && t+dt < len(truth); dt++ {
				if truth[t+dt] == 1 {
					reclassified = true
					break
				}
			}
			if reclassified {
				c.TN++
			} else {
				c.FP++
			}
		default: // pred 0, truth 1
			// FN unless a positive prediction preceded within k samples.
			reclassified := false
			for dt := 1; dt <= k && t-dt >= 0; dt++ {
				if pred[t-dt] == 1 {
					reclassified = true
					break
				}
			}
			if reclassified {
				c.TP++
			} else {
				c.FN++
			}
		}
	}
	return c, nil
}

// Total returns the number of counted samples.
func (c Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// F1 returns the Sørensen-Dice coefficient 2TP/(2TP+FP+FN).
// By convention it is 0 when the denominator is 0.
func (c Confusion) F1() float64 {
	den := 2*c.TP + c.FP + c.FN
	if den == 0 {
		return 0
	}
	return 2 * float64(c.TP) / float64(den)
}

// String renders the matrix like the paper's table rows.
func (c Confusion) String() string {
	return fmt.Sprintf("TN=%d FP=%d FN=%d TP=%d F1=%.3f Acc=%.3f",
		c.TN, c.FP, c.FN, c.TP, c.F1(), c.Accuracy())
}
