package frame

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testSchema(d int) Schema {
	s := make(Schema, d)
	letters := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range s {
		s[i] = Col{Name: letters[i%len(letters)] + string(rune('0'+i)), Domain: "t"}
	}
	return s
}

// testFrame builds runs runs of rowsPerRun standard-normal rows each,
// drawn row by row, with span IDs counting from 1 and labels alternating
// 0, 1 within a run.
func testFrame(runs, rowsPerRun, d int, seed int64) *Frame {
	r := rand.New(rand.NewSource(seed))
	n := runs * rowsPerRun
	spans := make([]Span, runs)
	labels := make([]int, n)
	for g := range spans {
		spans[g] = Span{ID: g + 1, Start: g * rowsPerRun, End: (g + 1) * rowsPerRun}
		for i := spans[g].Start; i < spans[g].End; i++ {
			labels[i] = (i - spans[g].Start) % 2
		}
	}
	f := NewDense(testSchema(d), n, spans, labels)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			f.Col(j)[i] = r.NormFloat64()
		}
	}
	return f
}

// validate checks a frame's bookkeeping: one label per row when labeled,
// and spans that tile the rows in order.
func validate(f *Frame) error {
	if f.labels != nil && len(f.labels) != f.rows {
		return fmt.Errorf("%d labels for %d rows", len(f.labels), f.rows)
	}
	prev := 0
	for _, s := range f.spans {
		if s.Start != prev || s.End < s.Start || s.End > f.rows {
			return fmt.Errorf("bad span %+v (rows=%d, expected start %d)", s, f.rows, prev)
		}
		prev = s.End
	}
	if len(f.spans) > 0 && prev != f.rows {
		return fmt.Errorf("spans cover %d of %d rows", prev, f.rows)
	}
	return nil
}

// TestRowRangeAliasesBacking locks the zero-copy contract: a mutation
// through a row-range view's column is visible through the parent and
// through a second overlapping view, because all three share one backing
// array.
func TestRowRangeAliasesBacking(t *testing.T) {
	f := testFrame(2, 10, 3, 2)
	a := f.RowRange(5, 15)
	b := f.RowRange(10, 20)

	a.Col(2)[9] = 1234.5 // parent row 14
	if got := f.Col(2)[14]; got != 1234.5 {
		t.Errorf("parent does not see view write: %v", got)
	}
	if got := b.Col(2)[4]; got != 1234.5 {
		t.Errorf("sibling view does not see write: %v", got)
	}
	a.Col(0)[0] = -7 // parent row 5
	if got := f.Col(0)[5]; got != -7 {
		t.Errorf("write through view invisible to parent col: %v", got)
	}
}

func TestRowRangeSpanClipping(t *testing.T) {
	f := testFrame(3, 10, 2, 4)
	v := f.RowRange(5, 25)
	want := []Span{{1, 0, 5}, {2, 5, 15}, {3, 15, 20}}
	if len(v.Spans()) != len(want) {
		t.Fatalf("spans %+v, want %+v", v.Spans(), want)
	}
	for i, s := range v.Spans() {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	if err := validate(v); err != nil {
		t.Fatal(err)
	}
	// Labels alias the parent.
	v.Labels()[0] = 9
	if f.Labels()[5] != 9 {
		t.Error("view labels are not aliased to parent")
	}
	f.Labels()[5] = 1
}

func TestRunView(t *testing.T) {
	f := testFrame(3, 7, 2, 5)
	v := f.RunView(1)
	if v.Rows() != 7 || v.Spans()[0].ID != 2 {
		t.Fatalf("run view wrong: rows=%d spans=%+v", v.Rows(), v.Spans())
	}
	if v.Col(1)[0] != f.Col(1)[7] {
		t.Error("run view misaligned")
	}
	if g := f.GroupIDs(); g[0] != 1 || g[10] != 2 || g[20] != 3 {
		t.Errorf("group ids wrong: %v", g)
	}
}

func TestMaterializeRowsRoundTrip(t *testing.T) {
	f := testFrame(2, 6, 4, 7)
	rows := f.MaterializeRows()
	if len(rows) != f.Rows() {
		t.Fatalf("%d rows", len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != f.Col(j)[i] {
				t.Fatalf("row %d col %d mismatch", i, j)
			}
		}
	}
}

func TestCheckFinite(t *testing.T) {
	f := testFrame(1, 5, 3, 8)
	if err := f.CheckFinite(); err != nil {
		t.Fatalf("finite frame rejected: %v", err)
	}
	f.Col(1)[3] = math.NaN()
	if err := f.CheckFinite(); err == nil {
		t.Error("NaN not rejected")
	}
	f.Col(1)[3] = math.Inf(-1)
	if err := f.CheckFinite(); err == nil {
		t.Error("-Inf not rejected")
	}
}

func TestSchemaHashSensitivity(t *testing.T) {
	s := Schema{
		{Name: "cpu", Domain: "cpu", Util: true},
		{Name: "mem", Domain: "mem", Log: true},
	}
	base := s.Hash()

	reordered := Schema{s[1], s[0]}
	if reordered.Hash() == base {
		t.Error("reordering columns did not change the hash")
	}
	flag := s.Clone()
	flag[0].Util = false
	if flag.Hash() == base {
		t.Error("flipping a flag did not change the hash")
	}
	renamed := s.Clone()
	renamed[1].Name = "mem2"
	if renamed.Hash() == base {
		t.Error("renaming a column did not change the hash")
	}
	// Length-prefixing means adjacent names cannot collide by
	// concatenation.
	a := Schema{{Name: "xy"}, {Name: "z"}}
	b := Schema{{Name: "x"}, {Name: "yz"}}
	if a.Hash() == b.Hash() {
		t.Error("name boundary collision")
	}
	if s.Hash() != base {
		t.Error("hash is not deterministic")
	}
}
