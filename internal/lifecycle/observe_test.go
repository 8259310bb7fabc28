package lifecycle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"monitorless/internal/dataset"
	"monitorless/internal/frame"
)

// ---- the naive reference ---------------------------------------------

// refAccum is what Cell.Observe must reproduce on every column it keeps:
// frame.Quantize for the bin and a plain per-column Welford step, at full
// width, with no plan, keys or offsets.
type refAccum struct {
	n      float64
	mean   []float64
	m2     []float64
	counts [][]uint32
}

func newRefAccum(fp *frame.Fingerprint) *refAccum {
	r := &refAccum{mean: make([]float64, len(fp.Cols)), m2: make([]float64, len(fp.Cols))}
	for j := range fp.Cols {
		r.counts = append(r.counts, make([]uint32, len(fp.Cols[j].Edges)+1))
	}
	return r
}

func (r *refAccum) observe(fp *frame.Fingerprint, vals []float64) {
	r.n++
	for j, v := range vals {
		d := v - r.mean[j]
		r.mean[j] += d / r.n
		r.m2[j] += d * (v - r.mean[j])
		r.counts[j][frame.Quantize(fp.Cols[j].Edges, v)]++
	}
}

// requireMatchesRef compares one app's accumulator, laid out by plan c,
// with the reference, to the bit, on every watched column.
func requireMatchesRef(t testing.TB, c *plan, a *accum, app string, ref *refAccum) {
	t.Helper()
	if a == nil {
		t.Fatalf("app %s: no accumulator", app)
	}
	if a.n != ref.n {
		t.Fatalf("app %s: n = %v, reference %v", app, a.n, ref.n)
	}
	for k, j := range c.cols {
		name := c.fp.Cols[j].Name
		if got, want := math.Float64bits(a.mean[k]), math.Float64bits(ref.mean[j]); got != want {
			t.Fatalf("app %s col %d (%s): mean %v (%#x), reference %v (%#x)", app, j, name, a.mean[k], got, ref.mean[j], want)
		}
		if got, want := math.Float64bits(a.m2[k]), math.Float64bits(ref.m2[j]); got != want {
			t.Fatalf("app %s col %d (%s): M2 %v (%#x), reference %v (%#x)", app, j, name, a.m2[k], got, ref.m2[j], want)
		}
		got := a.counts[int(c.koff[k])+k : int(c.koff[k+1])+k+1]
		if len(got) != len(ref.counts[j]) {
			t.Fatalf("app %s col %d (%s): %d bins, reference %d", app, j, name, len(got), len(ref.counts[j]))
		}
		for b, n := range ref.counts[j] {
			if got[b] != n {
				t.Fatalf("app %s col %d (%s): bin %d holds %d, reference %d (edges %v)", app, j, name, b, got[b], n, c.fp.Cols[j].Edges)
			}
		}
	}
}

// ---- the catalog-width fixture ---------------------------------------

var (
	catalogOnce sync.Once
	catalogFP   *frame.Fingerprint
	catalogRows *frame.Frame
	catalogErr  error
)

// catalogFingerprint sketches a few Table 1 runs at the full metric
// catalog width — the fingerprint shape and value mix the fleet sends.
func catalogFingerprint(t testing.TB) (*frame.Fingerprint, *frame.Frame) {
	t.Helper()
	catalogOnce.Do(func() {
		var cfgs []dataset.RunConfig
		for _, c := range dataset.Table1() {
			switch c.ID {
			case 1, 8, 22:
				cfgs = append(cfgs, c)
			}
		}
		fr, _, err := dataset.GenerateFrame(cfgs, dataset.GenOptions{Duration: 200, RampSeconds: 150, Seed: 5})
		if err != nil {
			catalogErr = err
			return
		}
		catalogRows = fr
		catalogFP = frame.FingerprintFrame(catalogRows, 0)
	})
	if catalogErr != nil {
		t.Fatalf("catalog fingerprint: %v", catalogErr)
	}
	return catalogFP, catalogRows
}

// withEdges returns a fingerprint sharing fp's columns except for the
// given replacements (column index → edges).
func withEdges(fp *frame.Fingerprint, repl map[int][]float64) *frame.Fingerprint {
	out := &frame.Fingerprint{Rows: fp.Rows, Cols: append([]frame.ColFingerprint(nil), fp.Cols...)}
	for j, e := range repl {
		out.Cols[j].Edges = e
		out.Cols[j].Props = make([]float64, len(e)+1)
	}
	return out
}

func appNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("app%02d", i)
	}
	return names
}

// TestCellObserveMatchesReference holds Observe to its contract: on every
// watched column, for every float64 input, the per-app count, bin
// occupancies, mean and M2 are those of frame.Quantize plus a plain
// Welford step, bit for bit — with and without a watch list.
func TestCellObserveMatchesReference(t *testing.T) {
	base, fr := catalogFingerprint(t)
	cols := len(base.Cols)

	// Three columns get edge arrays the real sketch rarely produces: none
	// at all, duplicates, and the 63-edge maximum.
	const noEdges, dupEdges, maxEdges = 3, 40, 101
	ramp := make([]float64, frame.MaxFingerprintBins-1)
	for i := range ramp {
		ramp[i] = float64(i-20) * 0.37
	}
	fp := withEdges(base, map[int][]float64{
		noEdges:  {},
		dupEdges: {-1, -1, math.Copysign(0, -1), 0, 0, 2.5, 2.5},
		maxEdges: ramp,
	})
	if err := fp.Validate(cols); err != nil {
		t.Fatal(err)
	}

	negNaN := math.Float64frombits(0xFFF8000000000001)
	finite := []float64{math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	nonFinite := []float64{math.NaN(), negNaN, math.Inf(1), math.Inf(-1)}

	for _, watch := range []bool{false, true} {
		t.Run(fmt.Sprintf("watch=%v", watch), func(t *testing.T) {
			fp := withEdges(fp, nil) // private copy: SetWatch must not leak between subtests
			if watch {
				mask := make([]bool, cols)
				for j := range mask {
					mask[j] = j%4 == 1
				}
				mask[noEdges], mask[dupEdges], mask[maxEdges] = true, true, true
				fp.SetWatch(mask)
				if got := len(fp.Watched()); got >= cols || got < 3 {
					t.Fatalf("watch list has %d of %d columns", got, cols)
				}
			} else if got := len(fp.Watched()); got != cols {
				t.Fatalf("no watch list, yet %d of %d columns watched", got, cols)
			}

			apps := appNames(32)
			refs := make([]*refAccum, len(apps))
			for i := range refs {
				refs[i] = newRefAccum(fp)
			}
			cell := NewCell()
			vec := make([]float64, cols)
			const samples = 32 * 150
			for i := 0; i < samples; i++ {
				ai := i % len(apps)
				vec = fr.Row(i%fr.Rows(), vec)
				// Every sample carries one exact edge value; every third a
				// special. Non-finite values poison a column's moments for
				// good, so only the upper half of the apps receive them and
				// the lower half keeps finite statistics to compare.
				j := (i * 7) % cols
				if e := fp.Cols[j].Edges; len(e) > 0 {
					vec[j] = e[i%len(e)]
				}
				if i%3 == 0 {
					j = (i*13 + 5) % cols
					vec[j] = finite[(i/3)%len(finite)]
					if ai >= len(apps)/2 {
						vec[(i*11+2)%cols] = nonFinite[(i/3)%len(nonFinite)]
					}
				}
				// The special columns see specials and their own edges often.
				vec[dupEdges] = []float64{-1, 0, 2.5, -2, 1, 3, math.Copysign(0, -1)}[i%7]
				vec[maxEdges] = ramp[(i*5)%len(ramp)] + []float64{0, 1e-9, -1e-9}[i%3]
				cell.Observe(fp, apps[ai], vec)
				refs[ai].observe(fp, vec)
			}
			// A wrong-width vector is dropped whole.
			cell.Observe(fp, apps[0], vec[:cols-1])

			for i, app := range apps {
				requireMatchesRef(t, &cell.plan, cell.apps[app], app, refs[i])
			}

			// The monitor sees the same numbers after the shard merge.
			mon := NewMonitor(fp, samples) // window never completes
			mon.Absorb(cell)
			if len(mon.apps) != len(apps) {
				t.Fatalf("monitor holds %d apps, want %d", len(mon.apps), len(apps))
			}
			for i, app := range apps {
				requireMatchesRef(t, &mon.plan, mon.apps[app], app, refs[i])
			}
		})
	}
}

// fuzzCase decodes fuzzer bytes into an edge array and a value stream:
// byte 0 is the edge count (low 6 bits) and whether to exercise a watch
// list (high bit), then 8 bytes per edge, then 8 bytes per value.
func fuzzCase(data []byte) (edges, vals []float64, watch bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	n := int(data[0] & 63)
	watch = data[0]&0x80 != 0
	data = data[1:]
	for ; n > 0 && len(data) >= 8; n-- {
		if e := math.Float64frombits(binary.LittleEndian.Uint64(data)); e == e {
			edges = append(edges, e)
		}
		data = data[8:]
	}
	sort.Float64s(edges)
	for ; len(data) >= 8; data = data[8:] {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return edges, vals, watch
}

// fuzzBytes is fuzzCase's inverse, for seeding.
func fuzzBytes(edges, vals []float64, watch bool) []byte {
	b := []byte{byte(len(edges))}
	if watch {
		b[0] |= 0x80
	}
	for _, v := range append(append([]float64(nil), edges...), vals...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzCellObserveVsReference lets the fuzzer choose both the edges and
// the values. Column 0 is a decoy the watch list drops; columns 1 and 2
// carry the fuzzed edges and receive v and −v.
func FuzzCellObserveVsReference(f *testing.F) {
	specials := []float64{math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, 2, 2.5}
	f.Add(fuzzBytes(nil, specials, false))
	f.Add(fuzzBytes([]float64{1, 2, 2, 3}, specials, true))
	f.Add(fuzzBytes([]float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1)}, specials, true))
	ramp := make([]float64, 63)
	for i := range ramp {
		ramp[i] = float64(i) - 31
	}
	f.Add(fuzzBytes(ramp, append([]float64{-31, 31, 0.5, -100, 100}, specials...), false))

	f.Fuzz(func(t *testing.T, data []byte) {
		edges, vals, watch := fuzzCase(data)
		col := frame.ColFingerprint{Edges: edges, Props: make([]float64, len(edges)+1)}
		fp := &frame.Fingerprint{Cols: []frame.ColFingerprint{{Name: "decoy", Props: []float64{1}}, col, col}}
		fp.Cols[1].Name, fp.Cols[2].Name = "v", "neg"
		if err := fp.Validate(3); err != nil {
			t.Skip(err)
		}
		if watch {
			fp.SetWatch([]bool{false, true, true})
		}
		cell, ref := NewCell(), newRefAccum(fp)
		for _, v := range vals {
			row := []float64{1, v, -v}
			cell.Observe(fp, "app", row)
			ref.observe(fp, row)
		}
		if len(vals) > 0 {
			requireMatchesRef(t, &cell.plan, cell.apps["app"], "app", ref)
		}
	})
}

// TestAbsorbDiscardsCellCompiledBeforeWatchList: a cell that bound to the
// fingerprint before its watch list was set has a wider slab layout than a
// monitor built after; Absorb drops it rather than merging misaligned.
func TestAbsorbDiscardsCellCompiledBeforeWatchList(t *testing.T) {
	fp, fr := syntheticFingerprint(t, 3, 200)
	cell := NewCell()
	vec := make([]float64, 3)
	for i := 0; i < 100; i++ {
		cell.Observe(fp, "app", fr.Row(i, vec))
	}
	fp.SetWatch([]bool{false, true, false})
	mon := NewMonitor(fp, 100)
	mon.Absorb(cell)
	if len(mon.Scores()) != 0 {
		t.Fatal("cell with a stale layout was merged")
	}
	// The discard recompiled the cell, so the next window lines up.
	for i := 0; i < 100; i++ {
		cell.Observe(fp, "app", fr.Row(i, vec))
	}
	mon.Absorb(cell)
	if s := mon.Scores(); len(s) != 1 || len(s[0].Top) != 1 {
		t.Fatalf("scores after rebind = %+v, want one app scored on one column", s)
	}
}

// ---- the accumulator's algebra ----------------------------------------

// TestAccumWelfordMatchesTwoPass: the streaming moments agree with the
// textbook two-pass mean and variance.
func TestAccumWelfordMatchesTwoPass(t *testing.T) {
	const cols, rows = 3, 500
	fp, fr := syntheticFingerprint(t, cols, rows)
	cell := NewCell()
	vec := make([]float64, cols)
	for i := 0; i < rows; i++ {
		cell.Observe(fp, "app", fr.Row(i, vec))
	}
	a := cell.apps["app"]
	if a.n != rows {
		t.Fatalf("count = %v, want %d", a.n, rows)
	}
	for j := 0; j < cols; j++ {
		col := fr.Col(j)
		var sum float64
		for _, v := range col {
			sum += v
		}
		mean := sum / rows
		var m2 float64
		for _, v := range col {
			m2 += (v - mean) * (v - mean)
		}
		if d := math.Abs(a.mean[j] - mean); d > 1e-9 {
			t.Errorf("col %d mean %v, want %v", j, a.mean[j], mean)
		}
		if d := math.Abs(a.m2[j]/a.n - m2/rows); d > 1e-9 {
			t.Errorf("col %d var %v, want %v", j, a.m2[j]/a.n, m2/rows)
		}
	}
}

// TestAccumMergeMatchesSingleStream: three partial accumulators merge to
// the single-stream moments and exactly its occupancies; reset zeroes in
// place.
func TestAccumMergeMatchesSingleStream(t *testing.T) {
	const cols, rows = 3, 400
	fp, fr := syntheticFingerprint(t, cols, rows)
	whole := NewCell()
	parts := []*Cell{NewCell(), NewCell(), NewCell()}
	vec := make([]float64, cols)
	for i := 0; i < rows; i++ {
		vec = fr.Row(i, vec)
		whole.Observe(fp, "app", vec)
		parts[i%3].Observe(fp, "app", vec)
	}
	merged := whole.newAccum()
	for _, p := range parts {
		merged.merge(p.apps["app"])
	}
	w := whole.apps["app"]
	if merged.n != w.n {
		t.Fatalf("merged count %v, want %v", merged.n, w.n)
	}
	for j := 0; j < cols; j++ {
		if d := math.Abs(merged.mean[j] - w.mean[j]); d > 1e-9 {
			t.Errorf("col %d merged mean %v, single %v", j, merged.mean[j], w.mean[j])
		}
		if d := math.Abs(merged.m2[j]/merged.n - w.m2[j]/w.n); d > 1e-9 {
			t.Errorf("col %d merged var %v, single %v", j, merged.m2[j]/merged.n, w.m2[j]/w.n)
		}
	}
	for i, n := range w.counts {
		if merged.counts[i] != n {
			t.Fatalf("merged occupancy %d = %d, single %d", i, merged.counts[i], n)
		}
	}
	merged.reset()
	if merged.n != 0 || merged.mean[0] != 0 || merged.m2[0] != 0 || merged.counts[0] != 0 {
		t.Fatal("reset did not zero the accumulator")
	}
}

// TestAccumObserveAllocs: the fused Welford-and-bin step allocates nothing
// once every app has its accumulator.
func TestAccumObserveAllocs(t *testing.T) {
	const cols = 32
	fp, fr := syntheticFingerprint(t, cols, 200)
	apps := appNames(4)
	cell := NewCell()
	vec := make([]float64, cols)
	for _, app := range apps {
		cell.Observe(fp, app, fr.Row(0, vec))
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		cell.Observe(fp, apps[i%len(apps)], fr.Row(i%200, vec))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Cell.Observe allocates %v/op across %d apps, want 0", allocs, len(apps))
	}
}

// BenchmarkCellObserve measures what a fleet shard does: catalog-width
// vectors of real metric values, 32 applications interleaved sample by
// sample, against a fingerprint watching the columns a paper-layout
// pipeline reads (about a quarter of them).
func BenchmarkCellObserve(b *testing.B) {
	base, fr := catalogFingerprint(b)
	for _, bc := range []struct {
		name  string
		watch func(j int) bool
	}{
		{"watched", func(j int) bool { return j%4 == 0 }},
		{"all", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fp := withEdges(base, nil)
			if bc.watch != nil {
				mask := make([]bool, len(fp.Cols))
				for j := range mask {
					mask[j] = bc.watch(j)
				}
				fp.SetWatch(mask)
			}
			apps := appNames(32)
			rows := make([][]float64, fr.Rows())
			for i := range rows {
				rows[i] = fr.Row(i, nil)
			}
			cell := NewCell()
			for i := range apps {
				cell.Observe(fp, apps[i], rows[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cell.Observe(fp, apps[i%len(apps)], rows[i%len(rows)])
			}
		})
	}
}
