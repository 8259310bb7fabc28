// Package dataset assembles labeled training data the way the paper does
// (§2.3, §3.2): each sample is the combined host∥container metric vector
// M_{I,t} of one service instance at one second, labeled with the
// application's saturation state P̃_A(t). Samples are grouped by run so
// cross-validation can hold out whole runs (§3.4). The package also ships
// the 25 Table 1 training configurations and the generator that executes
// them on the simulator.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"monitorless/internal/frame"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
)

// Sample is one labeled observation of one service instance.
type Sample struct {
	// RunID identifies the Table 1 run (the CV group).
	RunID int
	// T is the simulation second within the run.
	T int
	// Label is 1 when the owning application was saturated.
	Label int
	// KPI is the application KPI (throughput) at the sample's tick; kept
	// for offline analyses such as the §5 scale-in relabeling. It is
	// never fed to the classifier.
	KPI float64
	// Values is the combined metric vector (catalog order).
	Values []float64
}

// Dataset is a set of samples over a fixed metric schema.
type Dataset struct {
	// Defs is the metric schema (pcp.Catalog.CombinedDefs order).
	Defs []pcp.MetricDef
	// Samples holds the labeled rows.
	Samples []Sample
}

// Names returns the metric names in vector order.
func (d *Dataset) Names() []string {
	out := make([]string, len(d.Defs))
	for i, def := range d.Defs {
		out[i] = def.Name
	}
	return out
}

// Schema returns the dataset's columnar frame schema (the single
// pcp.SchemaFromDefs translation of its metric definitions).
func (d *Dataset) Schema() frame.Schema { return pcp.SchemaFromDefs(d.Defs) }

// Frame converts the dataset into a columnar frame: one contiguous
// column-major backing array with one span per run (first-appearance
// order, time order within each run) and the saturation labels attached.
// This is the training-side entry onto the columnar data plane. Each
// sample's row is its run's first row plus its rank within the run; the
// exact-size frame is then filled row by row, in parallel over blocks of
// columns, so the first touch of its pages is spread over the pool too.
func (d *Dataset) Frame() *frame.Frame {
	order := map[int]int{}
	var ids, next []int
	for i := range d.Samples {
		id := d.Samples[i].RunID
		ri, ok := order[id]
		if !ok {
			ri = len(ids)
			order[id] = ri
			ids = append(ids, id)
			next = append(next, 0)
		}
		next[ri]++
	}
	spans := make([]frame.Span, len(ids))
	base := 0
	for ri, id := range ids {
		spans[ri] = frame.Span{ID: id, Start: base, End: base + next[ri]}
		next[ri] = base
		base = spans[ri].End
	}
	rowOf := make([]int, len(d.Samples))
	labels := make([]int, len(d.Samples))
	for i := range d.Samples {
		ri := order[d.Samples[i].RunID]
		rowOf[i] = next[ri]
		next[ri]++
		labels[rowOf[i]] = d.Samples[i].Label
	}
	fr := frame.NewDense(d.Schema(), len(d.Samples), spans, labels)
	cols := fr.Cols(nil)
	const block = 32
	_ = parallel.ForEach((len(cols)+block-1)/block, func(b int) error {
		lo, hi := b*block, min((b+1)*block, len(cols))
		part := cols[lo:hi]
		for i := range d.Samples {
			p := rowOf[i]
			for j, v := range d.Samples[i].Values[lo:hi] {
				part[j][p] = v
			}
		}
		return nil
	})
	return fr
}

// SaturatedFraction is the share of positive labels (paper: 26% in training).
func (d *Dataset) SaturatedFraction() float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	n := 0
	for i := range d.Samples {
		n += d.Samples[i].Label
	}
	return float64(n) / float64(len(d.Samples))
}

// RunIDs returns the distinct run IDs in first-appearance order.
func (d *Dataset) RunIDs() []int {
	seen := map[int]bool{}
	var out []int
	for i := range d.Samples {
		id := d.Samples[i].RunID
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// FilterRuns returns a dataset containing only the given runs.
func (d *Dataset) FilterRuns(ids ...int) *Dataset {
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	out := &Dataset{Defs: d.Defs}
	for i := range d.Samples {
		if want[d.Samples[i].RunID] {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// WriteCSV serializes the dataset: a header row (runid,t,label,metrics...)
// followed by one row per sample.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cols := append([]string{"runid", "t", "label", "kpi"}, d.Names()...)
	if _, err := bw.WriteString(strings.Join(cols, ",") + "\n"); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for i := range d.Samples {
		s := &d.Samples[i]
		row := make([]string, 0, 4+len(s.Values))
		row = append(row, strconv.Itoa(s.RunID), strconv.Itoa(s.T), strconv.Itoa(s.Label),
			strconv.FormatFloat(s.KPI, 'g', 9, 64))
		for _, v := range s.Values {
			row = append(row, strconv.FormatFloat(v, 'g', 9, 64))
		}
		if _, err := bw.WriteString(strings.Join(row, ",") + "\n"); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV. The defs are rebuilt from
// the catalog when names match, else left as bare gauge definitions.
func ReadCSV(r io.Reader, cat *pcp.Catalog) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty input")
	}
	header := strings.Split(sc.Text(), ",")
	if len(header) < 5 || header[0] != "runid" || header[1] != "t" || header[2] != "label" || header[3] != "kpi" {
		return nil, fmt.Errorf("dataset: malformed header")
	}
	names := header[4:]

	var defs []pcp.MetricDef
	if cat != nil {
		byName := map[string]pcp.MetricDef{}
		for _, d := range cat.CombinedDefs() {
			byName[d.Name] = d
		}
		for _, n := range names {
			if d, ok := byName[n]; ok {
				defs = append(defs, d)
			} else {
				defs = append(defs, pcp.MetricDef{Name: n, Kind: pcp.Gauge, Domain: pcp.DomOther})
			}
		}
	} else {
		for _, n := range names {
			defs = append(defs, pcp.MetricDef{Name: n, Kind: pcp.Gauge, Domain: pcp.DomOther})
		}
	}

	d := &Dataset{Defs: defs}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != 4+len(names) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), 4+len(names))
		}
		runID, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d runid: %w", line, err)
		}
		t, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d t: %w", line, err)
		}
		lbl, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d label: %w", line, err)
		}
		kpi, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d kpi: %w", line, err)
		}
		vals := make([]float64, len(names))
		for i, f := range fields[4:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d col %d: %w", line, i, err)
			}
			vals[i] = v
		}
		d.Samples = append(d.Samples, Sample{RunID: runID, T: t, Label: lbl, KPI: kpi, Values: vals})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}
	return d, nil
}
