package dataset

import (
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/workload"
)

// measureAtPeak runs one config at its peak traffic and returns the
// instance state plus node capacities for bottleneck inspection.
func measureAtPeak(t *testing.T, id int) (apps.InstanceState, *cluster.Node) {
	t.Helper()
	var cfg RunConfig
	for _, c := range Table1() {
		if c.ID == id {
			cfg = c
		}
	}
	if cfg.ID == 0 {
		t.Fatalf("run %d not in Table 1", id)
	}
	cl, err := cluster.New(apps.TrainingNode("t"))
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.Build(cl, "x", workload.Constant{Rate: cfg.MaxRate}, []apps.ServiceSpec{{
		Name:       cfg.Service,
		Node:       "t",
		Profile:    cfg.Profile(),
		Visit:      1,
		CPULimit:   cfg.CPULimit,
		MemLimitGB: cfg.MemLimitGB,
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := apps.NewEngine(cl, app)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(25, nil)
	return app.Services()[0].Instances()[0].State, cl.NodesView()[0]
}

// TestTable1BottlenecksMaterialize spot-checks that representative Table 1
// configurations saturate the resource their Bottleneck column claims.
func TestTable1BottlenecksMaterialize(t *testing.T) {
	t.Run("run1 container CPU", func(t *testing.T) {
		st, _ := measureAtPeak(t, 1) // Solr @3 cores, 1000 r/s
		if !st.Throttled {
			t.Error("expected cgroup throttling at peak")
		}
		if util := st.CPUGranted / st.CPULimit; util < 0.95 {
			t.Errorf("container CPU util %.2f, want pegged", util)
		}
	})

	t.Run("run7 memory bandwidth", func(t *testing.T) {
		st, node := measureAtPeak(t, 7) // Memcache unlimited, 50K r/s
		if bw := st.MemBWGBps / node.MemBWGBps; bw < 0.9 {
			t.Errorf("memory bandwidth util %.2f, want near 1", bw)
		}
		if st.Throttled {
			t.Error("memory-bandwidth bound run must not be CPU throttled")
		}
	})

	t.Run("run10 memory thrash to IO", func(t *testing.T) {
		st, _ := measureAtPeak(t, 10) // Memcache @4GB, 65K r/s
		if st.ThrashFrac < 0.3 {
			t.Errorf("thrash %.2f, want substantial (10GB set in 4GB)", st.ThrashFrac)
		}
		if st.PageFaultRate <= 0 {
			t.Error("expected major page faults")
		}
	})

	t.Run("run13 network", func(t *testing.T) {
		st, node := measureAtPeak(t, 13) // Cassandra D unlimited, 90K r/s
		if util := st.NetMbps / node.NetMbps; util < 0.85 {
			t.Errorf("network util %.2f, want near 1", util)
		}
	})

	t.Run("run16 disk via thrash", func(t *testing.T) {
		st, node := measureAtPeak(t, 16) // Cassandra B @20c/30GB, 1000 r/s
		if st.ThrashFrac <= 0 {
			t.Error("expected cache-miss thrashing with a 30GB cap")
		}
		diskUtil := (st.DiskReadMBps + st.DiskWriteMBps) / node.DiskMBps
		if diskUtil < 0.8 {
			t.Errorf("disk util %.2f, want the IO bandwidth to bind", diskUtil)
		}
	})

	t.Run("run19 container CPU under pair load", func(t *testing.T) {
		st, _ := measureAtPeak(t, 19) // Cassandra B @6 cores, 15K r/s
		if !st.Throttled {
			t.Error("expected cgroup throttling (6-core cap, 15K r/s)")
		}
	})

	t.Run("run25 stays unsaturated", func(t *testing.T) {
		st, _ := measureAtPeak(t, 25) // Cassandra F @1 core, 20 r/s
		if st.Drops > 0 {
			t.Errorf("run 25 should not drop requests, got %v/s", st.Drops)
		}
		if st.Throughput < 18 {
			t.Errorf("throughput %.1f, want ~20", st.Throughput)
		}
	})
}
