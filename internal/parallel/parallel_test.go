package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]int32, n)
	if err := ForEach(n, func(i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		out := make([]int, 0)
		got, err := Map(200, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		_ = workers
		for i, v := range got {
			if v != i*i {
				t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
			}
		}
		_ = out
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	// Several failing indices; the error must always be the lowest one,
	// exactly as the serial loop would have reported, independent of
	// scheduling. Repeat to shake out interleavings.
	fail := map[int]bool{7: true, 31: true, 90: true}
	for rep := 0; rep < 50; rep++ {
		err := Do(context.Background(), 8, 100, func(i int) error {
			if fail[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("rep %d: err = %v, want task 7 failed", rep, err)
		}
	}
}

func TestDoStopsLaunchingAfterError(t *testing.T) {
	var executed atomic.Int64
	err := Do(context.Background(), 2, 10000, func(i int) error {
		executed.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := executed.Load(); got > 100 {
		t.Errorf("executed %d tasks after an early failure, want a prompt stop", got)
	}
}

func TestDoContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- Do(ctx, 4, 100000, func(i int) error {
			executed.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if executed.Load() >= 100000 {
		t.Error("cancellation did not stop the fan-out early")
	}
}

func TestDoZeroAndNegativeN(t *testing.T) {
	if err := Do(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := Do(context.Background(), 4, -3, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n<0: %v", err)
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(-5)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative reset: DefaultWorkers = %d", got)
	}
}

// TestMapSchedulingIndependence runs the same seeded per-task computation
// under widely different pool widths and demands bit-identical results —
// the property every call site in the repo depends on.
func TestMapSchedulingIndependence(t *testing.T) {
	job := func(workers int) []float64 {
		out := make([]float64, 64)
		err := Do(context.Background(), workers, 64, func(i int) error {
			rng := rand.New(rand.NewSource(42 + int64(i)*7919)) // the forest's per-tree formula
			s := 0.0
			for k := 0; k < 1000; k++ {
				s += rng.Float64()
			}
			out[i] = s
			return nil
		})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		return out
	}
	serial := job(1)
	for _, w := range []int{2, 8, 64} {
		got := job(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %v, serial %v", w, i, got[i], serial[i])
			}
		}
	}
}

func BenchmarkForEach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ForEach(256, func(int) error { return nil })
	}
}
