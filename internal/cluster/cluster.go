// Package cluster models the physical substrate of the paper's testbed:
// nodes (HP ProLiant-class servers), Linux containers with cgroup CPU and
// memory limits, and the per-node arbitration of shared resources (CPU
// cores via fair-share water-filling, disk bandwidth, network bandwidth
// and memory bandwidth). Co-located containers interfere exactly through
// this arbitration, which is what the paper's parallel training runs
// (Table 1, "Par" column) exercise.
package cluster

import (
	"fmt"
	"sort"
)

// Node is a physical host.
type Node struct {
	// Name identifies the node ("M1", "M2", ...).
	Name string
	// Cores is the CPU core count.
	Cores float64
	// MemGB is installed memory.
	MemGB float64
	// DiskMBps is the aggregate disk bandwidth.
	DiskMBps float64
	// NetMbps is the NIC bandwidth.
	NetMbps float64
	// MemBWGBps is the memory bandwidth (Memcache's unconstrained
	// bottleneck in Table 1 run 7).
	MemBWGBps float64
	// OS is informational (the paper trains on CentOS and evaluates on
	// Debian/Ubuntu to show robustness).
	OS string

	containers []*Container
}

// NewNode returns a node with the given capacities.
func NewNode(name string, cores, memGB, diskMBps, netMbps float64) *Node {
	return &Node{
		Name:      name,
		Cores:     cores,
		MemGB:     memGB,
		DiskMBps:  diskMBps,
		NetMbps:   netMbps,
		MemBWGBps: 40,
		OS:        "linux",
	}
}

// Containers returns a copy of the containers currently placed on the
// node, sorted by ID.
func (n *Node) Containers() []*Container {
	out := make([]*Container, len(n.containers))
	copy(out, n.containers)
	return out
}

// Placed returns the node's containers sorted by ID as a shared read-only
// view: no copy is made, and the slice is only valid until the next Place
// or Remove on the owning cluster (watch Cluster.Epoch to detect that).
// The per-tick hot paths index their arenas by position in this slice.
func (n *Node) Placed() []*Container { return n.containers }

// Container is one service instance's virtual environment.
type Container struct {
	// ID is unique within the cluster.
	ID string
	// Service and App name what runs inside.
	Service string
	App     string
	// CPULimit is the cgroup CPU quota in cores; 0 means unlimited.
	CPULimit float64
	// MemLimitGB is the cgroup memory limit; 0 means unlimited.
	MemLimitGB float64

	node *Node
	slot int32 // dense cluster-wide slot, stable while placed
	pos  int32 // index into node.containers (ID-sorted)
}

// Node returns the hosting node, or nil if unplaced.
func (c *Container) Node() *Node { return c.node }

// Slot returns the container's dense cluster-wide slot index, assigned by
// Place and stable until Remove (slots of removed containers are reused).
// Collectors index per-container state slabs by slot instead of hashing
// the string ID every tick. Returns -1 if the container is not placed.
func (c *Container) Slot() int32 {
	if c.node == nil {
		return -1
	}
	return c.slot
}

// NodeIndex returns the container's position in its node's ID-sorted
// container list (Node.Placed), or -1 if unplaced. Valid until the next
// Place/Remove on the cluster.
func (c *Container) NodeIndex() int32 {
	if c.node == nil {
		return -1
	}
	return c.pos
}

// Cluster is a set of nodes with container placement.
type Cluster struct {
	nodes      []*Node
	nodeByName map[string]*Node
	// containers is the string-ID boundary map: placement, scaling and
	// wire-facing lookups go through it. The per-tick hot paths never
	// range over it (map iteration order is random; slot and node-position
	// indices carry the deterministic order instead), so its order cannot
	// leak into emitted metrics.
	containers map[string]*Container

	slots     []*Container // dense slot registry; nil entries are free
	freeSlots []int32      // LIFO free list of slot indices
	epoch     uint64       // bumped by every Place/Remove
}

// New returns a cluster over the given nodes.
func New(nodes ...*Node) (*Cluster, error) {
	c := &Cluster{
		nodeByName: make(map[string]*Node, len(nodes)),
		containers: make(map[string]*Container),
	}
	for _, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node without a name")
		}
		if _, dup := c.nodeByName[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n.Name)
		}
		c.nodes = append(c.nodes, n)
		c.nodeByName[n.Name] = n
	}
	return c, nil
}

// NodesView returns the cluster's nodes in insertion order as a shared
// read-only view (no copy); the slice must not be mutated.
func (c *Cluster) NodesView() []*Node { return c.nodes }

// Nodes returns a copy of the cluster's nodes in insertion order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Node looks a node up by name.
func (c *Cluster) Node(name string) (*Node, bool) {
	n, ok := c.nodeByName[name]
	return n, ok
}

// Epoch returns a counter that changes whenever the container topology
// does (every Place/Remove). Hot paths cache slot- and position-indexed
// arenas and rebuild them when the epoch moves.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// NumSlots returns the size of the dense slot space (placed containers
// plus currently free slots). Slot-indexed state slabs are sized by it.
func (c *Cluster) NumSlots() int { return len(c.slots) }

// BySlot returns the container occupying a slot, or nil if the slot is
// free or out of range.
func (c *Cluster) BySlot(slot int32) *Container {
	if slot < 0 || int(slot) >= len(c.slots) {
		return nil
	}
	return c.slots[slot]
}

// Place creates a container on the named node, assigning it a dense slot
// and inserting it into the node's ID-sorted container list.
func (c *Cluster) Place(nodeName string, ctr *Container) error {
	n, ok := c.nodeByName[nodeName]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", nodeName)
	}
	if ctr.ID == "" {
		return fmt.Errorf("cluster: container without an ID")
	}
	if _, dup := c.containers[ctr.ID]; dup {
		return fmt.Errorf("cluster: duplicate container %q", ctr.ID)
	}
	ctr.node = n
	if k := len(c.freeSlots); k > 0 {
		ctr.slot = c.freeSlots[k-1]
		c.freeSlots = c.freeSlots[:k-1]
		c.slots[ctr.slot] = ctr
	} else {
		ctr.slot = int32(len(c.slots))
		c.slots = append(c.slots, ctr)
	}
	// Keep the node list sorted by ID so positional iteration is the
	// deterministic order (and the floating-point accumulation order).
	i := sort.Search(len(n.containers), func(i int) bool { return n.containers[i].ID >= ctr.ID })
	n.containers = append(n.containers, nil)
	copy(n.containers[i+1:], n.containers[i:])
	n.containers[i] = ctr
	for j := i; j < len(n.containers); j++ {
		n.containers[j].pos = int32(j)
	}
	c.containers[ctr.ID] = ctr
	c.epoch++
	return nil
}

// Remove deletes a container from the cluster (scale-in), releasing its
// slot for reuse.
func (c *Cluster) Remove(id string) error {
	ctr, ok := c.containers[id]
	if !ok {
		return fmt.Errorf("cluster: unknown container %q", id)
	}
	delete(c.containers, id)
	n := ctr.node
	for i, x := range n.containers {
		if x == ctr {
			n.containers = append(n.containers[:i], n.containers[i+1:]...)
			for j := i; j < len(n.containers); j++ {
				n.containers[j].pos = int32(j)
			}
			break
		}
	}
	c.slots[ctr.slot] = nil
	c.freeSlots = append(c.freeSlots, ctr.slot)
	ctr.node = nil
	ctr.slot = -1
	ctr.pos = -1
	c.epoch++
	return nil
}

// Container looks a container up by ID.
func (c *Cluster) Container(id string) (*Container, bool) {
	ctr, ok := c.containers[id]
	return ctr, ok
}

// Containers returns all containers sorted by ID (deterministic iteration).
func (c *Cluster) Containers() []*Container {
	out := make([]*Container, 0, len(c.containers))
	for _, ctr := range c.containers {
		out = append(out, ctr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LeastLoadedNode returns the node with the fewest containers; used by the
// autoscaler to place replicas.
func (c *Cluster) LeastLoadedNode() *Node {
	if len(c.nodes) == 0 {
		return nil
	}
	best := c.nodes[0]
	for _, n := range c.nodes[1:] {
		if len(n.containers) < len(best.containers) {
			best = n
		}
	}
	return best
}

// Demand is one container's resource request for a tick.
type Demand struct {
	// CPU in cores, Disk in MB/s, Net in Mbit/s, MemBW in GB/s.
	CPU, Disk, Net, MemBW float64
}

// Grant is the arbitrated allocation for a tick.
type Grant struct {
	CPU, Disk, Net, MemBW float64
	// CPUThrottled reports whether the cgroup CPU limit clipped the
	// container's demand (the kernel's nr_throttled analogue).
	CPUThrottled bool
}

// cpuState is the water-filling working state for one container.
type cpuState struct {
	want    float64 // demand clipped by cgroup limit
	rawWant float64
	granted float64
}

// ArbScratch holds ArbitrateInto's reusable working state so steady-state
// arbitration performs no allocations. A scratch may be reused across
// ticks and across nodes, but not concurrently.
type ArbScratch struct {
	states []cpuState
}

// ArbitrateInto distributes one node's resources over per-container
// demands for one tick, writing the allocations into grants. CPU uses
// max-min fair water-filling honoring per-container cgroup limits; disk,
// network and memory bandwidth are shared proportionally when
// oversubscribed.
//
// ctrs, demands and grants are parallel slices: demands[i] is the request
// of ctrs[i] and grants[i] receives its allocation. ctrs must be in
// ID-sorted order (Node.Placed, or a subset preserving that order) — the
// iteration order is the floating-point accumulation order, so a sorted
// slice makes arbitration bit-reproducible. A nil ctrs[i] is treated as a
// container without a cgroup CPU limit. Every element participates in the
// water-fill (zero demands included).
func (n *Node) ArbitrateInto(ctrs []*Container, demands []Demand, grants []Grant, scr *ArbScratch) {
	if len(demands) != len(ctrs) || len(grants) != len(ctrs) {
		panic("cluster: ArbitrateInto slice length mismatch")
	}

	// --- CPU: max-min fair with cgroup caps. -------------------------
	states := scr.states[:0]
	for i := range ctrs {
		lim := n.Cores
		if ctr := ctrs[i]; ctr != nil && ctr.CPULimit > 0 && ctr.CPULimit < lim {
			lim = ctr.CPULimit
		}
		want := demands[i].CPU
		if want > lim {
			want = lim
		}
		states = append(states, cpuState{want: want, rawWant: demands[i].CPU})
	}
	scr.states = states
	remaining := n.Cores
	unsat := len(states)
	for unsat > 0 && remaining > 1e-12 {
		share := remaining / float64(unsat)
		progressed := false
		for i := range states {
			s := &states[i]
			need := s.want - s.granted
			if need <= 1e-12 {
				continue
			}
			give := share
			if give > need {
				give = need
			}
			s.granted += give
			remaining -= give
			progressed = true
		}
		unsat = 0
		for i := range states {
			if states[i].want-states[i].granted > 1e-12 {
				unsat++
			}
		}
		if !progressed {
			break
		}
	}

	// --- Disk / Net / MemBW: proportional sharing. --------------------
	var diskSum, netSum, bwSum float64
	for i := range demands {
		diskSum += demands[i].Disk
		netSum += demands[i].Net
		bwSum += demands[i].MemBW
	}
	scale := func(total, capacity float64) float64 {
		if capacity <= 0 || total <= capacity {
			return 1
		}
		return capacity / total
	}
	diskF := scale(diskSum, n.DiskMBps)
	netF := scale(netSum, n.NetMbps)
	bwF := scale(bwSum, n.MemBWGBps)

	for i := range states {
		s := &states[i]
		grants[i] = Grant{
			CPU:   s.granted,
			Disk:  demands[i].Disk * diskF,
			Net:   demands[i].Net * netF,
			MemBW: demands[i].MemBW * bwF,
			// Only the cgroup quota clip counts as kernel throttling;
			// host contention shows up as load, not nr_throttled.
			CPUThrottled: s.rawWant > s.want+1e-12,
		}
	}
}
