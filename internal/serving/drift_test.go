package serving

import (
	"reflect"
	"testing"

	"monitorless/internal/features"
	"monitorless/internal/pcp"
)

// TestRejectedBatchLeavesDriftWindowUntouched: a batch that fails
// validation part-way must not leave its earlier samples in the drift
// window. The batch's last sample duplicates its first, so the rejection
// comes after two good samples have been validated; with a window of two
// they would complete a window on their own.
func TestRejectedBatchLeavesDriftWindowUntouched(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 1, DriftWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	batch := func(ids ...string) pcp.WireObservation {
		return obsFor(0, ids, rows, 0)
	}

	if _, err := svc.IngestQuiet(batch("shop/web/0", "shop/web/1", "shop/web/0")); err == nil {
		t.Fatal("a batch with a duplicate instance was accepted")
	}
	svc.HarvestDrift()
	if n := svc.Drift().Windows(); n != 0 {
		t.Fatalf("rejected batch completed %d drift window(s); its samples reached the cell", n)
	}
	if sc := svc.Drift().Scores(); len(sc) != 0 {
		t.Fatalf("rejected batch produced drift scores: %+v", sc)
	}

	resp, err := svc.IngestQuiet(batch("shop/web/0", "shop/web/1", "shop/web/2"))
	if err != nil {
		t.Fatal(err)
	}
	svc.PutResponse(resp)
	svc.HarvestDrift()
	sc := svc.Drift().Scores()
	if len(sc) != 1 || sc[0].App != "shop" || sc[0].Samples != 3 {
		t.Fatalf("clean batch of 3 scored %+v, want one 3-sample window for shop", sc)
	}
}

// TestDriftWatchesOnlyLiveColumns: a shift on a raw column the pipeline
// never reads is invisible to the drift scores — to the bit — while the
// same shift on a column it does read is reported and attributed.
func TestDriftWatchesOnlyLiveColumns(t *testing.T) {
	m, ds := sharedTestModel(t)
	fp := m.Fingerprint
	watched := fp.Watched()
	if len(watched) == 0 || len(watched) >= len(fp.Cols) {
		t.Fatalf("shared model watches %d of %d raw columns; need a proper subset", len(watched), len(fp.Cols))
	}
	isWatched := make([]bool, len(fp.Cols))
	live := -1 // the watched column with the finest sketch
	for _, j := range watched {
		isWatched[j] = true
		if live < 0 || len(fp.Cols[j].Edges) > len(fp.Cols[live].Edges) {
			live = int(j)
		}
	}
	dead := -1
	for j, w := range isWatched {
		if !w && len(fp.Cols[j].Edges) > 0 {
			dead = j
			break
		}
	}
	if dead < 0 || len(fp.Cols[live].Edges) == 0 {
		t.Fatal("no suitable column pair in the shared fingerprint")
	}

	// Replay the training corpus itself, so the unshifted window scores no
	// drift and any alarm is the injected shift's.
	train := ds.Frame()
	window := train.Rows()
	svc, err := New(Config{Model: m, Shards: 2, DriftWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	var row []float64
	shift := func(j int) []float64 {
		out := append([]float64(nil), row...)
		out[j] += 1e9
		return out
	}
	for tick := 0; tick < window; tick++ {
		row = train.Row(tick, row)
		resp, err := svc.IngestQuiet(pcp.WireObservation{T: tick, Samples: []pcp.WireSample{
			{Instance: "base/s/0", Values: row},
			{Instance: "dead/s/0", Values: shift(dead)},
			{Instance: "live/s/0", Values: shift(live)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}
	svc.HarvestDrift()
	sc := svc.Drift().Scores()
	if len(sc) != 3 || sc[0].App != "base" || sc[1].App != "dead" || sc[2].App != "live" {
		t.Fatalf("drift scores: %+v", sc)
	}
	base, deadSc, liveSc := sc[0], sc[1], sc[2]

	if base.MaxPSI > 0.1 {
		t.Fatalf("the training corpus itself scores PSI %v on %q", base.MaxPSI, base.MaxPSIFeature)
	}
	if deadSc.MaxPSI != base.MaxPSI || deadSc.MaxShift != base.MaxShift || !reflect.DeepEqual(deadSc.Top, base.Top) {
		t.Errorf("shifting unwatched column %q moved the scores:\n base %+v\n dead %+v", fp.Cols[dead].Name, base, deadSc)
	}
	if name := fp.Cols[live].Name; liveSc.MaxPSI <= 0.25 || liveSc.MaxPSIFeature != name || liveSc.MaxShiftFeature != name {
		t.Errorf("shifting watched column %q: MaxPSI %v on %q, MaxShift on %q — want major drift attributed to it",
			name, liveSc.MaxPSI, liveSc.MaxPSIFeature, liveSc.MaxShiftFeature)
	}
}

// TestSwapResetsDriftOnlyOnNewFingerprint: a partial drift window is
// kept across a cold swap to a bundle that shares the serving
// fingerprint, and dropped by one whose fingerprint differs — after
// which windows fill and score against the new reference.
func TestSwapResetsDriftOnlyOnNewFingerprint(t *testing.T) {
	m, _ := sharedTestModel(t)
	rows := rawRows(t)
	blob, err := m.Pipeline.EncodeGob()
	if err != nil {
		t.Fatal(err)
	}
	const window, before = 10, 6
	run := func(newFP bool) (afterRest, afterFull uint64) {
		svc, err := New(Config{Model: m, Shards: 1, DriftWindow: window})
		if err != nil {
			t.Fatal(err)
		}
		tick := 0
		feed := func(n int) uint64 {
			for ; n > 0; n-- {
				resp, err := svc.IngestQuiet(obsFor(tick, []string{"a/s/0"}, rows, tick))
				if err != nil {
					t.Fatal(err)
				}
				svc.PutResponse(resp)
				tick++
			}
			svc.HarvestDrift()
			return svc.Drift().Windows()
		}
		if n := feed(before); n != 0 {
			t.Fatalf("%d of %d samples completed %d window(s)", before, window, n)
		}
		// A cold candidate: same engineered layout, different pipeline gob.
		pipe, err := features.DecodePipeline(blob)
		if err != nil {
			t.Fatal(err)
		}
		pipe.RawCols[0].Domain = "tweaked-for-cold-swap"
		m2 := *m
		m2.Pipeline = pipe
		if newFP {
			fp := *m.Fingerprint
			m2.Fingerprint = &fp
		}
		if ev, err := svc.Swap(&m2, 0); err != nil || !ev.Cold {
			t.Fatalf("swap: %+v, %v", ev, err)
		}
		return feed(window - before), feed(before)
	}
	if rest, _ := run(false); rest != 1 {
		t.Errorf("same fingerprint: the pre-swap partial window was dropped (%d windows after %d more samples, want 1)", rest, window-before)
	}
	rest, full := run(true)
	if rest != 0 {
		t.Errorf("new fingerprint: the pre-swap partial window survived (%d windows after %d more samples, want 0)", rest, window-before)
	}
	if full != 1 {
		t.Errorf("new fingerprint: %d windows after a full post-swap window, want 1", full)
	}
}
