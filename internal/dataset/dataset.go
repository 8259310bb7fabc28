// Package dataset assembles labeled training data the way the paper does
// (§2.3, §3.2): each row is the combined host∥container metric vector
// M_{I,t} of one service instance at one second, labeled with the
// application's saturation state P̃_A(t). Rows are grouped by run so
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
	"monitorless/internal/pcp"
)

// Dataset is the labeled corpus over a fixed metric schema: one dense
// columnar frame — one span per run, time order within each run, the
// saturation labels attached — plus each row's simulation second and
// application KPI as side columns aligned with the frame rows.
type Dataset struct {
	// Defs is the metric schema (pcp.Catalog.CombinedDefs order).
	Defs []pcp.MetricDef

	fr *frame.Frame
	// t is each row's simulation second within its run.
	t []int32
	// kpi is the application KPI (throughput) at each row's tick; kept
	// for offline analyses such as the §5 scale-in relabeling. It is
	// never fed to the classifier.
	kpi []float64
}

// Names returns the metric names in vector order.
func (d *Dataset) Names() []string {
	out := make([]string, len(d.Defs))
	for i, def := range d.Defs {
		out[i] = def.Name
	}
	return out
}

// Frame returns the corpus frame itself, not a copy: every call returns
// the same pointer, so callers treat it as read-only (the frame package's
// rule for transform inputs). It is nil for a zero Dataset.
func (d *Dataset) Frame() *frame.Frame { return d.fr }

// SaturatedFraction is the share of positive labels (paper: 26% in training).
func (d *Dataset) SaturatedFraction() float64 {
	if d.fr == nil || d.fr.Rows() == 0 {
		return 0
	}
	n := 0
	for _, l := range d.fr.Labels() {
		n += l
	}
	return float64(n) / float64(d.fr.Rows())
}

// RunIDs returns the run IDs in frame (first-appearance) order.
func (d *Dataset) RunIDs() []int {
	if d.fr == nil {
		return nil
	}
	out := make([]int, 0, d.fr.NumRuns())
	for _, s := range d.fr.Spans() {
		out = append(out, s.ID)
	}
	return out
}

// newDataset allocates a zeroed corpus of rows rows over defs, split into
// the given run spans.
func newDataset(defs []pcp.MetricDef, rows int, spans []frame.Span) *Dataset {
	return &Dataset{
		Defs: defs,
		fr:   frame.NewDense(pcp.SchemaFromDefs(defs), rows, spans, make([]int, rows)),
		t:    make([]int32, rows),
		kpi:  make([]float64, rows),
	}
}

// FilterRuns returns a dataset containing only the given runs, copied in
// frame order.
func (d *Dataset) FilterRuns(ids ...int) *Dataset {
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var src, spans []frame.Span
	rows := 0
	if d.fr != nil {
		for _, s := range d.fr.Spans() {
			if want[s.ID] {
				src = append(src, s)
				spans = append(spans, frame.Span{ID: s.ID, Start: rows, End: rows + s.End - s.Start})
				rows += s.End - s.Start
			}
		}
	}
	out := newDataset(d.Defs, rows, spans)
	for k, s := range src {
		at := spans[k].Start
		for j := range d.Defs {
			copy(out.fr.Col(j)[at:], d.fr.Col(j)[s.Start:s.End])
		}
		copy(out.fr.Labels()[at:], d.fr.Labels()[s.Start:s.End])
		copy(out.t[at:], d.t[s.Start:s.End])
		copy(out.kpi[at:], d.kpi[s.Start:s.End])
	}
	return out
}

// WriteCSV serializes the dataset: a header row (runid,t,label,kpi,
// metrics...) followed by one row per frame row, so rows are grouped by
// run.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cols := append([]string{"runid", "t", "label", "kpi"}, d.Names()...)
	if _, err := bw.WriteString(strings.Join(cols, ",") + "\n"); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	var ids []int
	if d.fr != nil {
		ids = d.fr.GroupIDs()
	}
	var vals []float64
	var row []string
	for i, id := range ids {
		vals = d.fr.Row(i, vals)
		row = append(row[:0], strconv.Itoa(id), strconv.Itoa(int(d.t[i])), strconv.Itoa(d.fr.Labels()[i]),
			strconv.FormatFloat(d.kpi[i], 'g', 9, 64))
		for _, v := range vals {
			row = append(row, strconv.FormatFloat(v, 'g', 9, 64))
		}
		if _, err := bw.WriteString(strings.Join(row, ",") + "\n"); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV. The defs are rebuilt from
// the catalog when names match, else left as bare gauge definitions. Rows
// are grouped by run in first-appearance order, keeping file order within
// each run, so files whose runs interleave (older writers emitted a
// parallel pair's rows tick by tick) load too.
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

	byName := map[string]pcp.MetricDef{}
	if cat != nil {
		for _, d := range cat.CombinedDefs() {
			byName[d.Name] = d
		}
	}
	defs := make([]pcp.MetricDef, len(names))
	for i, n := range names {
		d, ok := byName[n]
		if !ok {
			d = pcp.MetricDef{Name: n, Kind: pcp.Gauge, Domain: pcp.DomOther}
		}
		defs[i] = d
	}

	// Parse each run's rows into its own row-major slab, runs in order of
	// first appearance.
	type run struct {
		id   int
		t    []int32
		lbl  []int
		kpi  []float64
		vals []float64
	}
	var runs []*run
	byID := map[int]*run{}
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
		t, err := strconv.ParseInt(fields[1], 10, 32)
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
		ru := byID[runID]
		if ru == nil {
			ru = &run{id: runID}
			byID[runID] = ru
			runs = append(runs, ru)
		}
		for i, f := range fields[4:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d col %d: %w", line, i, err)
			}
			ru.vals = append(ru.vals, v)
		}
		ru.t, ru.lbl, ru.kpi = append(ru.t, int32(t)), append(ru.lbl, lbl), append(ru.kpi, kpi)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}

	spans := make([]frame.Span, len(runs))
	rows := 0
	for k, ru := range runs {
		spans[k] = frame.Span{ID: ru.id, Start: rows, End: rows + len(ru.t)}
		rows = spans[k].End
	}
	d := newDataset(defs, rows, spans)
	cols := d.fr.Cols(nil)
	for k, ru := range runs {
		at := spans[k].Start
		copy(d.fr.Labels()[at:], ru.lbl)
		copy(d.t[at:], ru.t)
		copy(d.kpi[at:], ru.kpi)
		for i := range ru.t {
			for j, v := range ru.vals[i*len(names) : (i+1)*len(names)] {
				cols[j][at+i] = v
			}
		}
	}
	return d, nil
}
