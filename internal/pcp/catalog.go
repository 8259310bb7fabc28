// Package pcp emulates the Performance Co-Pilot monitoring stack of the
// paper (§3.1): a catalog of host-level and container-level (cgroup)
// platform metrics sampled once per second, with counter metrics that must
// be rate-converted and utilization metrics on a relative scale. The
// catalog mixes genuinely informative metrics with static and noise
// metrics, preserving the paper's feature-selection problem (1040 raw
// metrics of which only ~117 carry signal; here scaled to ~290).
package pcp

import "fmt"

// Scope distinguishes host metrics (shared by all containers on a node)
// from per-container metrics.
type Scope int

// Scopes.
const (
	Host Scope = iota
	Container
)

// Kind drives preprocessing: counters are converted to rates, utilizations
// are already on a relative 0–100 scale, gauges pass through, statics are
// configuration values.
type Kind int

// Kinds.
const (
	Gauge Kind = iota
	Counter
	Utilization
	Static
)

// IsUtilization reports whether the metric is on a relative 0–100 scale.
func (k Kind) IsUtilization() bool { return k == Utilization }

// Domain groups metrics by subsystem; the feature pipeline multiplies
// metrics across *different* domains (§3.3.6).
type Domain string

// Domains.
const (
	DomCPU    Domain = "cpu"
	DomMem    Domain = "mem"
	DomDisk   Domain = "disk"
	DomNet    Domain = "net"
	DomKernel Domain = "kernel"
	DomVFS    Domain = "vfs"
	DomOther  Domain = "other"
)

// MetricDef describes one catalog entry.
type MetricDef struct {
	// Name is the PCP-style metric name.
	Name string
	// Scope is Host or Container.
	Scope Scope
	// Kind selects the preprocessing (rate conversion for counters).
	Kind Kind
	// Domain groups the metric for cross-domain feature products.
	Domain Domain
	// LogScale marks unbounded byte-valued metrics that the feature
	// pipeline moves to a logarithmic scale (§3.3.2).
	LogScale bool
}

// Catalog is the fixed metric schema for a deployment.
type Catalog struct {
	// HostDefs and ContainerDefs list the metric schemas in vector order.
	HostDefs      []MetricDef
	ContainerDefs []MetricDef
}

// hostNoiseCount and containerNoiseCount are the uninformative metrics the
// selection step must reject (device temperatures, unrelated daemons, ...).
const (
	hostNoiseCount      = 150
	containerNoiseCount = 20
)

// DefaultCatalog returns the standard catalog used throughout the
// reproduction.
func DefaultCatalog() *Catalog {
	h := func(name string, kind Kind, dom Domain, log bool) MetricDef {
		return MetricDef{Name: name, Scope: Host, Kind: kind, Domain: dom, LogScale: log}
	}
	c := func(name string, kind Kind, dom Domain, log bool) MetricDef {
		return MetricDef{Name: name, Scope: Container, Kind: kind, Domain: dom, LogScale: log}
	}

	host := []MetricDef{
		// CPU.
		h("kernel.all.cpu.user", Counter, DomCPU, false),
		h("kernel.all.cpu.sys", Counter, DomCPU, false),
		h("kernel.all.cpu.idle", Counter, DomCPU, false),
		h("kernel.all.cpu.wait.total", Counter, DomCPU, false),
		h("kernel.all.cpu.nice", Counter, DomCPU, false),
		h("kernel.all.cpu.steal", Counter, DomCPU, false),
		h("H-CPU-U", Utilization, DomCPU, false),
		h("kernel.all.load.1", Gauge, DomCPU, true),
		h("kernel.all.load.5", Gauge, DomCPU, true),
		h("kernel.all.load.15", Gauge, DomCPU, true),
		// Kernel.
		h("kernel.all.pswitch", Counter, DomKernel, true),
		h("kernel.all.intr", Counter, DomKernel, true),
		h("kernel.all.sysfork", Counter, DomKernel, true),
		h("kernel.all.nprocs", Gauge, DomKernel, true),
		h("kernel.all.runnable", Gauge, DomKernel, true),
		// Memory.
		h("mem.util.used", Gauge, DomMem, true),
		h("mem.util.free", Gauge, DomMem, true),
		h("mem.util.cached", Gauge, DomMem, true),
		h("mem.util.bufmem", Gauge, DomMem, true),
		h("mem.util.available", Gauge, DomMem, true),
		h("mem.util.slab", Gauge, DomMem, true),
		h("H-MEM-U", Utilization, DomMem, false),
		h("mem.vmstat.nr_inactive_anon", Gauge, DomMem, true),
		h("mem.vmstat.nr_active_anon", Gauge, DomMem, true),
		h("mem.vmstat.nr_inactive_file", Gauge, DomMem, true),
		h("mem.vmstat.nr_active_file", Gauge, DomMem, true),
		h("mem.vmstat.nr_kernel_stack", Gauge, DomMem, true),
		h("mem.vmstat.nr_dirty", Gauge, DomMem, true),
		h("mem.vmstat.pgpgin", Counter, DomMem, true),
		h("mem.vmstat.pgpgout", Counter, DomMem, true),
		h("mem.vmstat.pgfault", Counter, DomMem, true),
		h("mem.vmstat.pgmajfault", Counter, DomMem, true),
		h("mem.vmstat.pswpin", Counter, DomMem, true),
		h("mem.vmstat.pswpout", Counter, DomMem, true),
		h("perf.membw.util", Utilization, DomMem, false),
		// Network.
		h("network.tcp.currestab", Gauge, DomNet, true),
		h("network.tcpconn.established", Gauge, DomNet, true),
		h("network.sockstat.tcp.inuse", Gauge, DomNet, true),
		h("network.sockstat.tcp.tw", Gauge, DomNet, true),
		h("network.tcp.activeopens", Counter, DomNet, true),
		h("network.tcp.passiveopens", Counter, DomNet, true),
		h("network.tcp.retranssegs", Counter, DomNet, true),
		h("network.tcp.insegs", Counter, DomNet, true),
		h("network.tcp.outsegs", Counter, DomNet, true),
		h("network.interface.in.bytes", Counter, DomNet, true),
		h("network.interface.out.bytes", Counter, DomNet, true),
		h("network.interface.in.packets", Counter, DomNet, true),
		h("network.interface.out.packets", Counter, DomNet, true),
		h("network.interface.in.errors", Counter, DomNet, false),
		h("network.interface.out.drops", Counter, DomNet, false),
		h("H-NET-U", Utilization, DomNet, false),
		// Disk.
		h("disk.all.read", Counter, DomDisk, true),
		h("disk.all.write", Counter, DomDisk, true),
		h("disk.all.read_bytes", Counter, DomDisk, true),
		h("disk.all.write_bytes", Counter, DomDisk, true),
		h("disk.all.aveq", Gauge, DomDisk, true),
		h("disk.all.avactive", Gauge, DomDisk, true),
		h("H-DISK-U", Utilization, DomDisk, false),
		// VFS.
		h("vfs.inodes.free", Gauge, DomVFS, true),
		h("vfs.inodes.count", Gauge, DomVFS, true),
		h("vfs.files.count", Gauge, DomVFS, true),
		h("vfs.files.free", Gauge, DomVFS, true),
		// Hardware inventory (static).
		h("hinv.ncpu", Static, DomOther, false),
		h("hinv.ninterface", Static, DomOther, false),
		h("hinv.ndisk", Static, DomOther, false),
		h("hinv.physmem", Static, DomOther, true),
	}
	for i := 0; i < hostNoiseCount; i++ {
		host = append(host, h(fmt.Sprintf("pcp.host.misc%03d", i), Gauge, DomOther, false))
	}

	ctr := []MetricDef{
		// CPU / cgroup scheduler.
		c("cgroup.cpuacct.usage", Counter, DomCPU, false),
		c("cgroup.cpuacct.usage_user", Counter, DomCPU, false),
		c("cgroup.cpuacct.usage_sys", Counter, DomCPU, false),
		c("C-CPU-U", Utilization, DomCPU, false),
		c("cgroup.cpusched.periods", Counter, DomCPU, false),
		c("cgroup.cpusched.throttled", Counter, DomCPU, true),
		c("cgroup.cpusched.throttled_time", Counter, DomCPU, true),
		// Memory.
		c("cgroup.memory.usage", Gauge, DomMem, true),
		c("cgroup.memory.rss", Gauge, DomMem, true),
		c("cgroup.memory.cache", Gauge, DomMem, true),
		c("cgroup.memory.mapped_file", Gauge, DomMem, true),
		c("cgroup.memory.active_anon", Gauge, DomMem, true),
		c("cgroup.memory.inactive_anon", Gauge, DomMem, true),
		c("cgroup.memory.active_file", Gauge, DomMem, true),
		c("cgroup.memory.inactive_file", Gauge, DomMem, true),
		c("cgroup.memory.kernel_stack", Gauge, DomMem, true),
		c("S-MEM-U", Utilization, DomMem, false),
		c("S-MEM-U-mapped", Utilization, DomMem, false),
		c("S-MEM-U-active_file", Utilization, DomMem, false),
		c("cgroup.memory.pgfault", Counter, DomMem, true),
		c("cgroup.memory.pgmajfault", Counter, DomMem, true),
		// Network.
		c("container.network.in.bytes", Counter, DomNet, true),
		c("container.network.out.bytes", Counter, DomNet, true),
		c("container.network.in.packets", Counter, DomNet, true),
		c("container.network.out.packets", Counter, DomNet, true),
		c("container.tcp.conns", Gauge, DomNet, true),
		// Disk.
		c("container.disk.read_bytes", Counter, DomDisk, true),
		c("container.disk.write_bytes", Counter, DomDisk, true),
		c("container.disk.iops", Counter, DomDisk, true),
		// Processes.
		c("container.nprocs", Gauge, DomKernel, true),
		c("container.nthreads", Gauge, DomKernel, true),
	}
	for i := 0; i < containerNoiseCount; i++ {
		ctr = append(ctr, c(fmt.Sprintf("pcp.container.misc%02d", i), Gauge, DomOther, false))
	}

	return &Catalog{HostDefs: host, ContainerDefs: ctr}
}

// NumHost returns the host vector width.
func (c *Catalog) NumHost() int { return len(c.HostDefs) }

// CombinedDefs returns the per-instance feature schema: all host metrics
// followed by all container metrics (the paper's M_{I,t} = H_{c,t} ∥ V_{I,t}).
func (c *Catalog) CombinedDefs() []MetricDef {
	out := make([]MetricDef, 0, len(c.HostDefs)+len(c.ContainerDefs))
	out = append(out, c.HostDefs...)
	out = append(out, c.ContainerDefs...)
	return out
}

// ContainerIndex returns the position of a container metric by name, or -1.
func (c *Catalog) ContainerIndex(name string) int {
	for i, d := range c.ContainerDefs {
		if d.Name == name {
			return i
		}
	}
	return -1
}
