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

func testFrame(runs, rowsPerRun, d int, seed int64) *Frame {
	r := rand.New(rand.NewSource(seed))
	f := New(testSchema(d), 0)
	var labels []int
	for g := 0; g < runs; g++ {
		for i := 0; i < rowsPerRun; i++ {
			vals := make([]float64, d)
			for j := range vals {
				vals[j] = r.NormFloat64()
			}
			if err := f.Append(g+1, vals); err != nil {
				panic(err)
			}
			labels = append(labels, i%2)
		}
	}
	f.labels = labels
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

func TestAppendBuildsSpansAndLabels(t *testing.T) {
	f := testFrame(3, 10, 4, 1)
	if f.Rows() != 30 || f.NumCols() != 4 || f.NumRuns() != 3 {
		t.Fatalf("shape: rows=%d cols=%d runs=%d", f.Rows(), f.NumCols(), f.NumRuns())
	}
	if err := validate(f); err != nil {
		t.Fatal(err)
	}
	want := []Span{{1, 0, 10}, {2, 10, 20}, {3, 20, 30}}
	for i, s := range f.Spans() {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	g := f.GroupIDs()
	if g[0] != 1 || g[15] != 2 || g[29] != 3 {
		t.Errorf("group ids wrong: %v", g)
	}
	if len(f.Labels()) != 30 {
		t.Errorf("labels len %d", len(f.Labels()))
	}
}

func TestAppendGrowsAcrossReallocation(t *testing.T) {
	f := New(testSchema(3), 2)
	for i := 0; i < 300; i++ {
		if err := f.Append(7, []float64{float64(i), float64(2 * i), float64(3 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if f.Col(1)[i] != float64(2*i) {
			t.Fatalf("row %d col 1 = %v after growth", i, f.Col(1)[i])
		}
	}
	if f.NumRuns() != 1 || f.Spans()[0].End != 300 {
		t.Errorf("spans after growth: %+v", f.Spans())
	}
}

func TestAppendMixingLabeledUnlabeledFails(t *testing.T) {
	f := NewDense(testSchema(2), 1, []Span{{ID: 1, Start: 0, End: 1}}, []int{1})
	if err := f.Append(1, []float64{3, 4}); err == nil {
		t.Error("unlabeled append on labeled frame succeeded")
	}
	if f.Rows() != 1 || len(f.Labels()) != 1 {
		t.Errorf("rejected append changed the frame: %d rows, %d labels", f.Rows(), len(f.Labels()))
	}
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
	a.Set(0, 0, -7) // parent row 5
	if got := f.Col(0)[5]; got != -7 {
		t.Errorf("Set through view invisible to parent col: %v", got)
	}

	// Appending cannot be done through a view.
	if err := a.Append(1, []float64{0, 0, 0}); err == nil {
		t.Error("append through a view succeeded")
	}
}

// TestSelectColumnsCopies locks the opposite contract: column selection is
// a copy, so mutating the selection must NOT leak into the source.
func TestSelectColumnsCopies(t *testing.T) {
	f := testFrame(1, 8, 4, 3)
	sel, err := f.SelectColumns([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schema()[0] != f.Schema()[2] || sel.Schema()[1] != f.Schema()[0] {
		t.Fatal("selected schema wrong")
	}
	before := f.Col(2)[3]
	sel.Set(3, 0, before+99)
	if f.Col(2)[3] != before {
		t.Error("SelectColumns aliases source data; must copy")
	}
	if sel.Col(1)[5] != f.Col(0)[5] {
		t.Error("selected values wrong")
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
}

func TestSelectRowsGathers(t *testing.T) {
	f := testFrame(2, 5, 3, 6)
	idx := []int{9, 0, 4}
	g := f.SelectRows(idx)
	for p, i := range idx {
		for j := 0; j < 3; j++ {
			if g.Col(j)[p] != f.Col(j)[i] {
				t.Errorf("gather (%d,%d) wrong", p, j)
			}
		}
		if g.Labels()[p] != f.Labels()[i] {
			t.Errorf("gathered label %d wrong", p)
		}
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
	f.Set(3, 1, math.NaN())
	if err := f.CheckFinite(); err == nil {
		t.Error("NaN not rejected")
	}
	f.Set(3, 1, math.Inf(-1))
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

func TestDeriveSharesSpansAndLabels(t *testing.T) {
	f := testFrame(2, 5, 3, 10)
	d := f.Derive(testSchema(2))
	if d.Rows() != f.Rows() || d.NumCols() != 2 {
		t.Fatalf("derive shape wrong")
	}
	if d.Labels()[3] != f.Labels()[3] {
		t.Error("derive labels not aliased")
	}
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
}

// buildDense makes a labeled multi-run dense frame with deterministic
// pseudo-random contents.
func buildDense(t *testing.T, rows, cols, runs int, seed int64) *Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fr := New(testSchema(cols), rows)
	fr.labels = make([]int, 0, rows)
	vals := make([]float64, cols)
	for i := 0; i < rows; i++ {
		run := i * runs / rows
		for j := range vals {
			// Mix of continuous values and heavy ties.
			if j%4 == 3 {
				vals[j] = float64(rng.Intn(3))
			} else {
				vals[j] = rng.NormFloat64() * float64(j+1)
			}
		}
		if err := fr.appendRow(run, vals); err != nil {
			t.Fatalf("append: %v", err)
		}
		fr.labels = append(fr.labels, rng.Intn(2))
	}
	return fr
}

// TestSelectColumnsRowRangeView is the regression test for SelectColumns
// on row-range views: the copy must hold exactly the view's rows —
// correct values, len == cap == view rows per column — and spans that
// tile it.
func TestSelectColumnsRowRangeView(t *testing.T) {
	parent := buildDense(t, 200, 4, 2, 8)
	lo, hi := 37, 141
	v := parent.RowRange(lo, hi)

	sel, err := v.SelectColumns([]int{3, 1})
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if sel.Rows() != hi-lo {
		t.Fatalf("select rows %d, want %d", sel.Rows(), hi-lo)
	}
	for p, src := range []int{3, 1} {
		col := sel.Col(p)
		if len(col) != hi-lo || cap(col) != hi-lo {
			t.Fatalf("select column %d: len %d cap %d, want both %d", p, len(col), cap(col), hi-lo)
		}
		for i := range col {
			if col[i] != parent.Col(src)[lo+i] {
				t.Fatalf("select cell (%d,%d) = %v, want %v", i, p, col[i], parent.Col(src)[lo+i])
			}
		}
	}
	if err := validate(sel); err != nil {
		t.Fatalf("select validate: %v", err)
	}
}
