package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(NewNode("n1", 8, 32, 400, 1000), NewNode("n2", 4, 16, 200, 1000))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(&Node{}); err == nil {
		t.Error("expected error for unnamed node")
	}
	if _, err := New(NewNode("a", 1, 1, 1, 1), NewNode("a", 1, 1, 1, 1)); err == nil {
		t.Error("expected error for duplicate node")
	}
}

func TestPlaceAndLookup(t *testing.T) {
	c := newTestCluster(t)
	ctr := &Container{ID: "app/svc/0", Service: "svc", App: "app", CPULimit: 2}
	if err := c.Place("n1", ctr); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if ctr.Node() == nil || ctr.Node().Name != "n1" {
		t.Error("container not attached to n1")
	}
	got, ok := c.Container("app/svc/0")
	if !ok || got != ctr {
		t.Error("Container lookup failed")
	}
	n, ok := c.Node("n1")
	if !ok || len(n.Containers()) != 1 {
		t.Error("node lookup or container list failed")
	}
}

func TestPlaceErrors(t *testing.T) {
	c := newTestCluster(t)
	if err := c.Place("missing", &Container{ID: "x"}); err == nil {
		t.Error("expected unknown-node error")
	}
	if err := c.Place("n1", &Container{}); err == nil {
		t.Error("expected missing-ID error")
	}
	ctr := &Container{ID: "dup"}
	if err := c.Place("n1", ctr); err != nil {
		t.Fatal(err)
	}
	if err := c.Place("n2", &Container{ID: "dup"}); err == nil {
		t.Error("expected duplicate-ID error")
	}
}

func TestRemove(t *testing.T) {
	c := newTestCluster(t)
	ctr := &Container{ID: "r"}
	if err := c.Place("n1", ctr); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("r"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, ok := c.Container("r"); ok {
		t.Error("container still present after Remove")
	}
	n, _ := c.Node("n1")
	if len(n.Containers()) != 0 {
		t.Error("node still lists removed container")
	}
	if err := c.Remove("r"); err == nil {
		t.Error("expected error removing twice")
	}
}

func TestContainersSorted(t *testing.T) {
	c := newTestCluster(t)
	for _, id := range []string{"c", "a", "b"} {
		if err := c.Place("n1", &Container{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Containers()
	if len(got) != 3 || got[0].ID != "a" || got[1].ID != "b" || got[2].ID != "c" {
		t.Errorf("Containers not sorted: %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestLeastLoadedNode(t *testing.T) {
	c := newTestCluster(t)
	if err := c.Place("n1", &Container{ID: "1"}); err != nil {
		t.Fatal(err)
	}
	if n := c.LeastLoadedNode(); n.Name != "n2" {
		t.Errorf("LeastLoadedNode = %s, want n2", n.Name)
	}
	empty, _ := New()
	if empty.LeastLoadedNode() != nil {
		t.Error("empty cluster should return nil")
	}
}

// arbitrate runs ArbitrateInto over every container placed on n, the way
// the simulator's tick does, with demands keyed by container ID (an absent
// ID demands nothing), and returns the grants keyed the same way.
func arbitrate(n *Node, demands map[string]Demand) map[string]Grant {
	ctrs := n.Placed()
	dem := make([]Demand, len(ctrs))
	for i, ctr := range ctrs {
		dem[i] = demands[ctr.ID]
	}
	grants := make([]Grant, len(ctrs))
	var scr ArbScratch
	n.ArbitrateInto(ctrs, dem, grants, &scr)
	out := make(map[string]Grant, len(ctrs))
	for i, ctr := range ctrs {
		out[ctr.ID] = grants[i]
	}
	return out
}

func TestArbitrateUncontended(t *testing.T) {
	c := newTestCluster(t)
	n, _ := c.Node("n1") // 8 cores, 400 MB/s disk, 1000 Mbps
	if err := c.Place("n1", &Container{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	g := arbitrate(n, map[string]Demand{"a": {CPU: 2, Disk: 100, Net: 100, MemBW: 1}})
	ga := g["a"]
	if ga.CPU != 2 || ga.Disk != 100 || ga.Net != 100 || ga.MemBW != 1 {
		t.Errorf("uncontended grant clipped: %+v", ga)
	}
	if ga.CPUThrottled {
		t.Error("no limit, no contention: must not be throttled")
	}
}

func TestArbitrateCgroupLimit(t *testing.T) {
	c := newTestCluster(t)
	n, _ := c.Node("n1")
	if err := c.Place("n1", &Container{ID: "a", CPULimit: 1.5}); err != nil {
		t.Fatal(err)
	}
	g := arbitrate(n, map[string]Demand{"a": {CPU: 4}})
	if got := g["a"].CPU; math.Abs(got-1.5) > 1e-9 {
		t.Errorf("granted %v, want cgroup limit 1.5", got)
	}
	if !g["a"].CPUThrottled {
		t.Error("demand above cgroup limit must report throttling")
	}
}

func TestArbitrateHostContention(t *testing.T) {
	c := newTestCluster(t)
	n, _ := c.Node("n2") // 4 cores
	for _, id := range []string{"a", "b"} {
		if err := c.Place("n2", &Container{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	g := arbitrate(n, map[string]Demand{
		"a": {CPU: 3},
		"b": {CPU: 3},
	})
	// Max-min fair: both want 3, capacity 4 → 2 each.
	if math.Abs(g["a"].CPU-2) > 1e-9 || math.Abs(g["b"].CPU-2) > 1e-9 {
		t.Errorf("contended grants %v / %v, want 2 / 2", g["a"].CPU, g["b"].CPU)
	}
	// Host contention is not cgroup throttling.
	if g["a"].CPUThrottled || g["b"].CPUThrottled {
		t.Error("host contention must not be flagged as cgroup throttling")
	}
}

func TestArbitrateMaxMinFavorsSmall(t *testing.T) {
	c := newTestCluster(t)
	n, _ := c.Node("n2") // 4 cores
	for _, id := range []string{"small", "big"} {
		if err := c.Place("n2", &Container{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	g := arbitrate(n, map[string]Demand{
		"small": {CPU: 0.5},
		"big":   {CPU: 10},
	})
	if math.Abs(g["small"].CPU-0.5) > 1e-9 {
		t.Errorf("small demand should be fully satisfied, got %v", g["small"].CPU)
	}
	if math.Abs(g["big"].CPU-3.5) > 1e-9 {
		t.Errorf("big gets the rest: %v, want 3.5", g["big"].CPU)
	}
}

func TestArbitrateDiskProportional(t *testing.T) {
	c := newTestCluster(t)
	n, _ := c.Node("n1") // 400 MB/s
	for _, id := range []string{"a", "b"} {
		if err := c.Place("n1", &Container{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	g := arbitrate(n, map[string]Demand{
		"a": {Disk: 300},
		"b": {Disk: 300},
	})
	if math.Abs(g["a"].Disk-200) > 1e-9 || math.Abs(g["b"].Disk-200) > 1e-9 {
		t.Errorf("disk not shared proportionally: %v / %v", g["a"].Disk, g["b"].Disk)
	}
}

// Property: arbitration never over-allocates any resource and never grants
// more than demanded.
func TestArbitrateConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := NewNode("x", 4+r.Float64()*28, 32, 100+r.Float64()*500, 1000)
		c, err := New(n)
		if err != nil {
			return false
		}
		k := 1 + r.Intn(6)
		demands := map[string]Demand{}
		for i := 0; i < k; i++ {
			id := string(rune('a' + i))
			lim := 0.0
			if r.Float64() < 0.5 {
				lim = 0.5 + r.Float64()*4
			}
			if err := c.Place("x", &Container{ID: id, CPULimit: lim}); err != nil {
				return false
			}
			demands[id] = Demand{
				CPU:   r.Float64() * 10,
				Disk:  r.Float64() * 400,
				Net:   r.Float64() * 800,
				MemBW: r.Float64() * 30,
			}
		}
		grants := arbitrate(n, demands)
		var cpu, disk, net, bw float64
		for id, g := range grants {
			d := demands[id]
			if g.CPU > d.CPU+1e-9 || g.Disk > d.Disk+1e-9 || g.Net > d.Net+1e-9 || g.MemBW > d.MemBW+1e-9 {
				return false // granted more than asked
			}
			if g.CPU < -1e-12 || g.Disk < -1e-12 {
				return false
			}
			cpu += g.CPU
			disk += g.Disk
			net += g.Net
			bw += g.MemBW
		}
		return cpu <= n.Cores+1e-6 && disk <= n.DiskMBps+1e-6 &&
			net <= n.NetMbps+1e-6 && bw <= n.MemBWGBps+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
