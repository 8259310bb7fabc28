package pcp

import (
	"math"
	"math/rand"
	"sort"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
)

// instRef is one service instance in collection order, resolved to
// integer coordinates: plan node index and cluster slot.
type instRef struct {
	ctr  *cluster.Container
	st   *apps.InstanceState
	node int32 // index into collectPlan.nodes
	slot int32 // cluster slot (Container.Slot)
}

// collectPlan caches the engine's topology in collection order. The
// deterministic orders are part of the output contract: hosts are visited
// sorted by node name, containers sorted by container ID, and the shared
// rng draws in exactly that sequence, so emitted values are reproducible
// bit for bit regardless of how the topology was built.
type collectPlan struct {
	built   bool
	cluster *cluster.Cluster
	epoch   uint64
	nrefs   int

	nodes     []*cluster.Node // sorted by name
	refs      []instRef       // sorted by container ID
	refOfSlot []int32         // cluster slot → refs index, -1 when absent
	aggs      []nodeAggregate // per node scratch, reset each tick
}

// rawTick is one tick's raw readings in slot-indexed form (counters are
// cumulative, as a real PCP agent reports them): host vectors
// by plan node index, container vectors by cluster slot. Two buffers
// rotate, so a reading stays valid until the second following collection
// (the agent diffs the previous tick against the current one).
type rawTick struct {
	t       int
	cluster *cluster.Cluster
	host    [][]float64          // by plan node index
	ctr     [][]float64          // by cluster slot
	owner   []*cluster.Container // by cluster slot, for slot-reuse detection
}

// Collector synthesizes PCP readings from the simulator state. It holds
// cumulative counter state and random-walk state so consecutive readings
// diff into meaningful rates. All persistent per-container state is
// indexed by cluster slot and all per-host state by plan node index —
// the hot path performs no string hashing and no steady-state
// allocations.
type Collector struct {
	cat *Catalog
	rng *rand.Rand

	plan    collectPlan
	planGen uint64 // bumped on every plan rebuild

	hostCum   [][]float64  // by plan node index
	hostWalk  [][]float64  // by plan node index
	loadState [][3]float64 // by plan node index
	ctrCum    [][]float64  // by cluster slot
	ctrWalk   [][]float64  // by cluster slot
	ctrOwner  []*cluster.Container

	raw  [2]rawTick
	flip int
}

// NewCollector returns a collector over the catalog with deterministic
// measurement noise derived from seed.
func NewCollector(cat *Catalog, seed int64) *Collector {
	return &Collector{
		cat: cat,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Catalog returns the collector's metric schema.
func (c *Collector) Catalog() *Catalog { return c.cat }

// noisy perturbs v with ~2% multiplicative measurement noise (sampled
// rates and derived utilizations).
func (c *Collector) noisy(v float64) float64 {
	return v * (1 + 0.02*c.rng.NormFloat64())
}

// noisyExact perturbs v with ~0.2% noise: memory gauges are exact byte
// counters, not sampled rates, so their readings barely jitter.
func (c *Collector) noisyExact(v float64) float64 {
	return v * (1 + 0.002*c.rng.NormFloat64())
}

// nodeAggregate sums the instance states of all containers on one node.
type nodeAggregate struct {
	cpuUsed, cpuWant    float64
	throughput, conc    float64
	diskRead, diskWrite float64
	diskWant            float64
	netMbps             float64
	memUsedGB           float64
	memBW               float64
	pageFaults          float64
	drops               float64
	nContainers         int
	throttledContainers int
}

// ensurePlan rebuilds the collection plan when the engine's topology
// changed (cluster pointer, epoch, or instance count). Pointing the
// collector at a different cluster resets all cumulative state; within
// one cluster, per-slot container state survives topology changes for
// containers that persist, and a reused slot restarts from zero.
func (c *Collector) ensurePlan(eng *apps.Engine) {
	cl := eng.Cluster()
	p := &c.plan
	if p.built && p.cluster == cl && p.epoch == cl.Epoch() && p.nrefs == eng.NumInstances() {
		return
	}
	c.planGen++
	if p.cluster != cl {
		c.hostCum, c.hostWalk, c.loadState = nil, nil, nil
		c.ctrCum, c.ctrWalk, c.ctrOwner = nil, nil, nil
	}
	p.cluster = cl
	p.epoch = cl.Epoch()

	p.nodes = append(p.nodes[:0], cl.NodesView()...)
	sort.Slice(p.nodes, func(i, j int) bool { return p.nodes[i].Name < p.nodes[j].Name })
	nodeIdx := make(map[*cluster.Node]int32, len(p.nodes))
	for i, n := range p.nodes {
		nodeIdx[n] = int32(i)
	}

	p.refs = p.refs[:0]
	for _, a := range eng.Apps() {
		for _, s := range a.Services() {
			for _, inst := range s.Instances() {
				node := inst.Ctr.Node()
				if node == nil {
					continue
				}
				p.refs = append(p.refs, instRef{
					ctr:  inst.Ctr,
					st:   &inst.State,
					node: nodeIdx[node],
					slot: inst.Ctr.Slot(),
				})
			}
		}
	}
	sort.Slice(p.refs, func(i, j int) bool { return p.refs[i].ctr.ID < p.refs[j].ctr.ID })
	p.nrefs = eng.NumInstances()

	nslots := cl.NumSlots()
	if cap(p.refOfSlot) < nslots {
		p.refOfSlot = make([]int32, nslots)
	}
	p.refOfSlot = p.refOfSlot[:nslots]
	for i := range p.refOfSlot {
		p.refOfSlot[i] = -1
	}
	for i := range p.refs {
		p.refOfSlot[p.refs[i].slot] = int32(i)
	}

	if cap(p.aggs) < len(p.nodes) {
		p.aggs = make([]nodeAggregate, len(p.nodes))
	}
	p.aggs = p.aggs[:len(p.nodes)]

	// Host state slabs: node indices are stable for the lifetime of a
	// cluster (the node set is fixed at cluster.New), so existing rows
	// carry over untouched.
	hostW := len(c.cat.HostDefs)
	for len(c.hostCum) < len(p.nodes) {
		c.hostCum = append(c.hostCum, make([]float64, hostW))
		c.hostWalk = append(c.hostWalk, make([]float64, hostW))
		c.loadState = append(c.loadState, [3]float64{})
	}

	// Container state slabs by slot: a slot whose owner changed is a new
	// container, so its counters and random walks restart from zero —
	// exactly what a fresh container would report. (This also means the
	// state of removed containers is reclaimed instead of leaking, which
	// the old ID-keyed maps never did.)
	ctrW := len(c.cat.ContainerDefs)
	for len(c.ctrCum) < nslots {
		c.ctrCum = append(c.ctrCum, nil)
		c.ctrWalk = append(c.ctrWalk, nil)
		c.ctrOwner = append(c.ctrOwner, nil)
	}
	for i := range p.refs {
		slot := p.refs[i].slot
		if c.ctrCum[slot] == nil {
			c.ctrCum[slot] = make([]float64, ctrW)
			c.ctrWalk[slot] = make([]float64, ctrW)
		} else if c.ctrOwner[slot] != p.refs[i].ctr {
			for j := range c.ctrCum[slot] {
				c.ctrCum[slot][j] = 0
				c.ctrWalk[slot][j] = 0
			}
		}
		c.ctrOwner[slot] = p.refs[i].ctr
	}
	p.built = true
}

// collectRaw samples the engine into the next raw buffer. The returned
// tick stays valid until the second following collectRaw call.
func (c *Collector) collectRaw(eng *apps.Engine) *rawTick {
	c.ensurePlan(eng)
	p := &c.plan
	rt := &c.raw[c.flip]
	c.flip ^= 1
	rt.t = eng.Now()
	rt.cluster = p.cluster

	hostW := len(c.cat.HostDefs)
	ctrW := len(c.cat.ContainerDefs)
	for len(rt.host) < len(p.nodes) {
		rt.host = append(rt.host, make([]float64, hostW))
	}
	nslots := len(c.ctrCum)
	for len(rt.ctr) < nslots {
		rt.ctr = append(rt.ctr, nil)
	}
	rt.owner = append(rt.owner[:0], c.ctrOwner...)

	// Aggregate instance states per node, in ID-sorted container order —
	// the deterministic floating-point accumulation order.
	for i := range p.aggs {
		p.aggs[i] = nodeAggregate{}
	}
	for i := range p.refs {
		r := &p.refs[i]
		agg := &p.aggs[r.node]
		st := r.st
		agg.cpuUsed += st.CPUGranted
		agg.cpuWant += st.CPUWant
		agg.throughput += st.Throughput
		agg.conc += st.Concurrency
		agg.diskRead += st.DiskReadMBps
		agg.diskWrite += st.DiskWriteMBps
		agg.diskWant += st.DiskWantMBps
		agg.netMbps += st.NetMbps
		agg.memUsedGB += st.MemUsedGB
		agg.memBW += st.MemBWGBps
		agg.pageFaults += st.PageFaultRate
		agg.drops += st.Drops
		agg.nContainers++
		if st.Throttled {
			agg.throttledContainers++
		}
	}

	// The rng draw order is part of the output contract: hosts first, in
	// node-name order, then containers in ID order.
	for ni, node := range p.nodes {
		c.fillHost(ni, node, &p.aggs[ni], rt.host[ni])
	}
	for i := range p.refs {
		r := &p.refs[i]
		if rt.ctr[r.slot] == nil || len(rt.ctr[r.slot]) != ctrW {
			rt.ctr[r.slot] = make([]float64, ctrW)
		}
		c.fillCtr(r.ctr, p.nodes[r.node], r.st, rt.ctr[r.slot])
	}
	return rt
}

// bump adds a (noisy, non-negative) increment to a cumulative counter.
func (c *Collector) bump(cum []float64, idx int, rate float64) {
	if rate < 0 {
		rate = 0
	}
	inc := c.noisy(rate)
	if inc < 0 {
		inc = 0
	}
	cum[idx] += inc
}

const gb = 1 << 30

// fillHost writes one node's raw host vector into out, advancing the
// node's cumulative counters, load-average smoothing and noise walks
// (indexed by plan node position).
func (c *Collector) fillHost(ni int, node *cluster.Node, agg *nodeAggregate, out []float64) {
	defs := c.cat.HostDefs
	cum := c.hostCum[ni]
	walk := c.hostWalk[ni]

	// OS background activity.
	osCPU := 0.02 * node.Cores
	cpuUsed := math.Min(agg.cpuUsed+osCPU, node.Cores)
	cpuUtil := 100 * cpuUsed / node.Cores
	diskPressure := 0.0
	if node.DiskMBps > 0 {
		diskPressure = agg.diskWant / node.DiskMBps
	}
	iowaitCores := math.Min(diskPressure, 1) * 0.1 * node.Cores
	netUtil := 0.0
	if node.NetMbps > 0 {
		netUtil = 100 * agg.netMbps / node.NetMbps
	}
	memUsedGB := math.Min(agg.memUsedGB+4, node.MemGB)
	memUtil := 100 * memUsedGB / node.MemGB
	bwUtil := 100 * agg.memBW / node.MemBWGBps

	// Load averages with exponential smoothing per window.
	ls := c.loadState[ni]
	want := agg.cpuWant + osCPU
	ls[0] = ls[0]*math.Exp(-1.0/60) + want*(1-math.Exp(-1.0/60))
	ls[1] = ls[1]*math.Exp(-1.0/300) + want*(1-math.Exp(-1.0/300))
	ls[2] = ls[2]*math.Exp(-1.0/900) + want*(1-math.Exp(-1.0/900))
	c.loadState[ni] = ls

	netPkts := agg.netMbps / 8 * 1e6 / 1200 // ~1.2 KB per packet
	cachedGB := 0.35 * memUsedGB
	nprocs := 180 + 25*float64(agg.nContainers) + 0.05*agg.conc

	for i, d := range defs {
		switch d.Name {
		case "kernel.all.cpu.user":
			c.bump(cum, i, cpuUsed*0.75*100)
		case "kernel.all.cpu.sys":
			c.bump(cum, i, cpuUsed*0.23*100)
		case "kernel.all.cpu.idle":
			c.bump(cum, i, math.Max(node.Cores-cpuUsed-iowaitCores, 0)*100)
		case "kernel.all.cpu.wait.total":
			c.bump(cum, i, iowaitCores*100)
		case "kernel.all.cpu.nice":
			c.bump(cum, i, cpuUsed*0.02*100)
		case "kernel.all.cpu.steal":
			c.bump(cum, i, 0.1)
		case "H-CPU-U":
			out[i] = clampPct(c.noisy(cpuUtil))
		case "kernel.all.load.1":
			out[i] = math.Max(c.noisy(ls[0]), 0)
		case "kernel.all.load.5":
			out[i] = math.Max(c.noisy(ls[1]), 0)
		case "kernel.all.load.15":
			out[i] = math.Max(c.noisy(ls[2]), 0)
		case "kernel.all.pswitch":
			c.bump(cum, i, 1500+agg.throughput*12)
		case "kernel.all.intr":
			c.bump(cum, i, 900+agg.throughput*6+netPkts*0.5)
		case "kernel.all.sysfork":
			c.bump(cum, i, 5+agg.throughput*0.05)
		case "kernel.all.nprocs":
			out[i] = math.Max(c.noisy(nprocs), 1)
		case "kernel.all.runnable":
			out[i] = math.Max(c.noisy(math.Max(want-node.Cores, 0)+2), 0)
		case "mem.util.used":
			out[i] = math.Max(c.noisy(memUsedGB*gb), 0)
		case "mem.util.free":
			out[i] = math.Max(c.noisy((node.MemGB-memUsedGB)*gb), 0)
		case "mem.util.cached":
			out[i] = math.Max(c.noisy(cachedGB*gb), 0)
		case "mem.util.bufmem":
			out[i] = math.Max(c.noisy(0.05*memUsedGB*gb), 0)
		case "mem.util.available":
			out[i] = math.Max(c.noisy((node.MemGB-memUsedGB+cachedGB)*gb), 0)
		case "mem.util.slab":
			out[i] = math.Max(c.noisy(0.02*node.MemGB*gb), 0)
		case "H-MEM-U":
			out[i] = clampPct(c.noisyExact(memUtil))
		case "mem.vmstat.nr_inactive_anon":
			out[i] = math.Max(c.noisy(0.25*memUsedGB*gb/4096), 0)
		case "mem.vmstat.nr_active_anon":
			out[i] = math.Max(c.noisy(0.45*memUsedGB*gb/4096), 0)
		case "mem.vmstat.nr_inactive_file":
			out[i] = math.Max(c.noisy(0.4*cachedGB*gb/4096), 0)
		case "mem.vmstat.nr_active_file":
			out[i] = math.Max(c.noisy(0.6*cachedGB*gb/4096), 0)
		case "mem.vmstat.nr_kernel_stack":
			out[i] = math.Max(c.noisy(nprocs*4), 0)
		case "mem.vmstat.nr_dirty":
			out[i] = math.Max(c.noisy(agg.diskWrite*256*2), 0)
		case "mem.vmstat.pgpgin":
			c.bump(cum, i, agg.diskRead*1024)
		case "mem.vmstat.pgpgout":
			c.bump(cum, i, agg.diskWrite*1024)
		case "mem.vmstat.pgfault":
			c.bump(cum, i, agg.throughput*40+agg.pageFaults)
		case "mem.vmstat.pgmajfault":
			c.bump(cum, i, agg.pageFaults)
		case "mem.vmstat.pswpin":
			c.bump(cum, i, agg.pageFaults*0.8)
		case "mem.vmstat.pswpout":
			c.bump(cum, i, agg.pageFaults*0.5)
		case "perf.membw.util":
			out[i] = clampPct(c.noisy(bwUtil))
		case "network.tcp.currestab":
			out[i] = math.Max(c.noisy(15+agg.conc), 0)
		case "network.tcpconn.established":
			out[i] = math.Max(c.noisy(15+agg.conc), 0)
		case "network.sockstat.tcp.inuse":
			out[i] = math.Max(c.noisy(23+1.15*agg.conc), 0)
		case "network.sockstat.tcp.tw":
			out[i] = math.Max(c.noisy(agg.throughput*0.5), 0)
		case "network.tcp.activeopens":
			c.bump(cum, i, agg.throughput*0.5)
		case "network.tcp.passiveopens":
			c.bump(cum, i, agg.throughput*0.5)
		case "network.tcp.retranssegs":
			press := math.Max(netUtil/100-0.7, 0)
			c.bump(cum, i, press*press*400)
		case "network.tcp.insegs":
			c.bump(cum, i, 20+agg.throughput*6)
		case "network.tcp.outsegs":
			c.bump(cum, i, 20+agg.throughput*8)
		case "network.interface.in.bytes":
			c.bump(cum, i, 1e4+0.3*agg.netMbps/8*1e6)
		case "network.interface.out.bytes":
			c.bump(cum, i, 1e4+0.7*agg.netMbps/8*1e6)
		case "network.interface.in.packets":
			c.bump(cum, i, 10+0.4*netPkts)
		case "network.interface.out.packets":
			c.bump(cum, i, 10+0.6*netPkts)
		case "network.interface.in.errors":
			c.bump(cum, i, math.Max(netUtil/100-0.95, 0)*50)
		case "network.interface.out.drops":
			c.bump(cum, i, math.Max(netUtil/100-0.9, 0)*80)
		case "H-NET-U":
			out[i] = clampPct(c.noisy(netUtil))
		case "disk.all.read":
			c.bump(cum, i, agg.diskRead*16)
		case "disk.all.write":
			c.bump(cum, i, agg.diskWrite*16)
		case "disk.all.read_bytes":
			c.bump(cum, i, agg.diskRead*1e6)
		case "disk.all.write_bytes":
			c.bump(cum, i, agg.diskWrite*1e6)
		case "disk.all.aveq":
			q := 3*math.Min(diskPressure, 1) + 120*math.Max(diskPressure-0.75, 0)
			out[i] = math.Max(c.noisy(q), 0)
		case "disk.all.avactive":
			out[i] = math.Max(c.noisy(math.Min(diskPressure, 1)*1000), 0)
		case "H-DISK-U":
			out[i] = clampPct(c.noisy(100 * math.Min(diskPressure, 1)))
		case "vfs.inodes.free":
			out[i] = math.Max(c.noisy(1e7-nprocs*20), 0)
		case "vfs.inodes.count":
			out[i] = c.noisy(1.2e7)
		case "vfs.files.count":
			out[i] = math.Max(c.noisy(5000+3*agg.conc+nprocs*8), 0)
		case "vfs.files.free":
			out[i] = math.Max(c.noisy(2e5-3*agg.conc), 0)
		case "hinv.ncpu":
			out[i] = node.Cores
		case "hinv.ninterface":
			out[i] = 2
		case "hinv.ndisk":
			out[i] = 4
		case "hinv.physmem":
			out[i] = node.MemGB * gb
		default:
			if v, ok := c.derivedHostValue(d.Name, node, agg); ok {
				if d.Kind == Counter {
					c.bump(cum, i, v)
				} else if d.Kind == Utilization {
					out[i] = clampPct(c.noisy(v))
				} else {
					out[i] = math.Max(c.noisy(v), 0)
				}
				break
			}
			// Noise metric: bounded random walk around 50.
			walk[i] = 0.98*walk[i] + c.rng.NormFloat64()
			out[i] = 50 + 10*walk[i]
		}
		if d.Kind == Counter {
			out[i] = cum[i]
		}
	}
}

// fillCtr writes one container's raw vector into out, advancing the
// slot-indexed cumulative counters and noise walks.
func (c *Collector) fillCtr(ctr *cluster.Container, node *cluster.Node, st *apps.InstanceState, out []float64) {
	defs := c.cat.ContainerDefs
	slot := ctr.Slot()
	cum := c.ctrCum[slot]
	walk := c.ctrWalk[slot]

	cpuLimit := st.CPULimit
	if cpuLimit <= 0 {
		cpuLimit = node.Cores
	}
	cpuUtil := 100 * st.CPUGranted / cpuLimit
	memLimit := st.MemLimitGB
	if memLimit <= 0 {
		memLimit = node.MemGB
	}
	memUtil := 100 * st.MemUsedGB / memLimit
	throttleIntensity := 0.0
	if st.Throttled && st.CPULimit > 0 {
		throttleIntensity = math.Min((st.CPUWant-st.CPULimit)/st.CPULimit, 1)
	}
	nthreads := 30 + 0.3*st.Concurrency
	mappedGB := 0.1 * st.MemUsedGB
	activeFileGB := 0.2 * st.MemUsedGB

	for i, d := range defs {
		switch d.Name {
		case "cgroup.cpuacct.usage":
			c.bump(cum, i, st.CPUGranted)
		case "cgroup.cpuacct.usage_user":
			c.bump(cum, i, st.CPUGranted*0.78)
		case "cgroup.cpuacct.usage_sys":
			c.bump(cum, i, st.CPUGranted*0.22)
		case "C-CPU-U":
			out[i] = clampPct(c.noisy(cpuUtil))
		case "cgroup.cpusched.periods":
			if st.CPULimit > 0 {
				c.bump(cum, i, 10)
			}
		case "cgroup.cpusched.throttled":
			c.bump(cum, i, 10*throttleIntensity)
		case "cgroup.cpusched.throttled_time":
			c.bump(cum, i, throttleIntensity)
		case "cgroup.memory.usage":
			out[i] = math.Max(c.noisy(st.MemUsedGB*gb), 0)
		case "cgroup.memory.rss":
			out[i] = math.Max(c.noisy(0.55*st.MemUsedGB*gb), 0)
		case "cgroup.memory.cache":
			out[i] = math.Max(c.noisy(0.35*st.MemUsedGB*gb), 0)
		case "cgroup.memory.mapped_file":
			out[i] = math.Max(c.noisy(mappedGB*gb), 0)
		case "cgroup.memory.active_anon":
			out[i] = math.Max(c.noisy(0.4*st.MemUsedGB*gb), 0)
		case "cgroup.memory.inactive_anon":
			out[i] = math.Max(c.noisy(0.15*st.MemUsedGB*gb), 0)
		case "cgroup.memory.active_file":
			out[i] = math.Max(c.noisy(activeFileGB*gb), 0)
		case "cgroup.memory.inactive_file":
			out[i] = math.Max(c.noisy(0.15*st.MemUsedGB*gb), 0)
		case "cgroup.memory.kernel_stack":
			out[i] = math.Max(c.noisy(nthreads*16*1024), 0)
		case "S-MEM-U":
			out[i] = clampPct(c.noisyExact(memUtil))
		case "S-MEM-U-mapped":
			out[i] = clampPct(c.noisyExact(100 * mappedGB / memLimit))
		case "S-MEM-U-active_file":
			out[i] = clampPct(c.noisyExact(100 * activeFileGB / memLimit))
		case "cgroup.memory.pgfault":
			c.bump(cum, i, st.Throughput*30+st.PageFaultRate)
		case "cgroup.memory.pgmajfault":
			c.bump(cum, i, st.PageFaultRate)
		case "container.network.in.bytes":
			c.bump(cum, i, 1e3+0.3*st.NetMbps/8*1e6)
		case "container.network.out.bytes":
			c.bump(cum, i, 1e3+0.7*st.NetMbps/8*1e6)
		case "container.network.in.packets":
			c.bump(cum, i, 5+st.Throughput*1.2)
		case "container.network.out.packets":
			c.bump(cum, i, 5+st.Throughput*1.5)
		case "container.tcp.conns":
			out[i] = math.Max(c.noisy(2+st.Concurrency), 0)
		case "container.disk.read_bytes":
			c.bump(cum, i, st.DiskReadMBps*1e6)
		case "container.disk.write_bytes":
			c.bump(cum, i, st.DiskWriteMBps*1e6)
		case "container.disk.iops":
			c.bump(cum, i, (st.DiskReadMBps+st.DiskWriteMBps)*16)
		case "container.nprocs":
			out[i] = math.Max(c.noisy(8+0.02*st.Concurrency), 1)
		case "container.nthreads":
			out[i] = math.Max(c.noisy(nthreads), 1)
		default:
			if v, ok := c.derivedContainerValue(d.Name, st); ok {
				if d.Kind == Counter {
					c.bump(cum, i, v)
				} else {
					out[i] = math.Max(c.noisy(v), 0)
				}
				break
			}
			walk[i] = 0.98*walk[i] + c.rng.NormFloat64()
			out[i] = 50 + 10*walk[i]
		}
		if d.Kind == Counter {
			out[i] = cum[i]
		}
	}
}

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
