package pcp

import (
	"math"
	"strings"
	"testing"
)

func TestFullCatalogMatchesPaperWidths(t *testing.T) {
	cat := FullCatalog()
	if cat.NumHost() != 952 {
		t.Errorf("host metrics = %d, want the paper's 952", cat.NumHost())
	}
	if len(cat.ContainerDefs) != 88 {
		t.Errorf("container metrics = %d, want the paper's 88", len(cat.ContainerDefs))
	}
	// Unique names within each scope.
	seen := map[string]bool{}
	for _, d := range cat.HostDefs {
		if seen[d.Name] {
			t.Fatalf("duplicate host metric %s", d.Name)
		}
		seen[d.Name] = true
	}
	seen = map[string]bool{}
	for _, d := range cat.ContainerDefs {
		if seen[d.Name] {
			t.Fatalf("duplicate container metric %s", d.Name)
		}
		seen[d.Name] = true
	}
	// The core signal metrics survive the expansion.
	for _, name := range []string{"H-CPU-U", "network.tcp.currestab", "mem.vmstat.pgmajfault"} {
		if hostIndex(cat, name) < 0 {
			t.Errorf("full catalog lost %s", name)
		}
	}
	if cat.ContainerIndex("C-CPU-U") < 0 || cat.ContainerIndex("cgroup.cpusched.throttled") < 0 {
		t.Error("full catalog lost core container metrics")
	}
}

func TestFullCatalogCollection(t *testing.T) {
	eng, _ := newTestRig(t, 600, 3, 0)
	cat := FullCatalog()
	agent := NewAgent(NewCollector(cat, 11))
	var vec []float64
	for i := 0; i < 8; i++ {
		eng.Tick()
		if obs, ok := agent.Observe(eng); ok {
			for _, smp := range obs.Samples {
				vec = smp.Values
			}
		}
	}
	if len(vec) != cat.NumHost()+len(cat.ContainerDefs) {
		t.Fatalf("vector width %d, want %d", len(vec), cat.NumHost()+len(cat.ContainerDefs))
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metric %d (%s) is %v", i, cat.CombinedDefs()[i].Name, v)
		}
	}

	// Per-CPU user counters sum roughly to the aggregate user rate.
	var perCPU, agg float64
	for i, d := range cat.HostDefs {
		if strings.HasPrefix(d.Name, "kernel.percpu.cpu.user.") {
			perCPU += vec[i]
		}
		if d.Name == "kernel.all.cpu.user" {
			agg = vec[i]
		}
	}
	if agg <= 0 {
		t.Fatal("aggregate user CPU rate is zero under load")
	}
	if ratio := perCPU / agg; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("per-CPU sum / aggregate = %.2f, want ~1", ratio)
	}

	// Per-disk bytes sum to the aggregate.
	var perDisk, aggDisk float64
	for i, d := range cat.HostDefs {
		if strings.HasPrefix(d.Name, "disk.dev.write_bytes.") {
			perDisk += vec[i]
		}
		if d.Name == "disk.all.write_bytes" {
			aggDisk = vec[i]
		}
	}
	if aggDisk > 0 {
		if ratio := perDisk / aggDisk; ratio < 0.7 || ratio > 1.3 {
			t.Errorf("per-disk sum / aggregate = %.2f, want ~1", ratio)
		}
	}

	// Filesystem occupancy percentages stay in range.
	for i, d := range cat.HostDefs {
		if strings.HasPrefix(d.Name, "filesys.full.") {
			if vec[i] < 0 || vec[i] > 100 {
				t.Errorf("%s = %v outside [0,100]", d.Name, vec[i])
			}
		}
	}
}

func TestFullCatalogCountersMonotone(t *testing.T) {
	eng, _ := newTestRig(t, 300, 3, 0)
	cat := FullCatalog()
	col := NewCollector(cat, 12)
	var prev *rawTick // collectRaw's buffers rotate: the previous tick stays valid
	for i := 0; i < 4; i++ {
		eng.Tick()
		tick := col.collectRaw(eng)
		if prev != nil {
			for node, cur := range tick.host {
				for j, d := range cat.HostDefs {
					if d.Kind == Counter && cur[j] < prev.host[node][j]-1e-9 {
						t.Fatalf("host counter %s decreased", d.Name)
					}
				}
			}
		}
		prev = tick
	}
}

func TestTrailingIndex(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"kernel.percpu.cpu.user.cpu17", 17},
		{"network.perif.in.bytes.eth1", 1},
		{"kernel.all.interrupts.line9", 9},
		{"no.digits", 0},
	}
	for _, c := range cases {
		if got := trailingIndex(c.in); got != c.want {
			t.Errorf("trailingIndex(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNameHashStableAndBounded(t *testing.T) {
	a := nameHash("filesys.used.fs3")
	b := nameHash("filesys.used.fs3")
	if a != b {
		t.Error("nameHash not stable")
	}
	for _, n := range []string{"a", "b", "c", "longer.metric.name"} {
		v := nameHash(n)
		if v < 0 || v >= 1 {
			t.Errorf("nameHash(%q) = %v outside [0,1)", n, v)
		}
	}
}
