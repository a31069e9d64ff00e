// Package storage models the storage media attached to cluster nodes:
// capacities, bandwidths, and in-flight transfer contention.
//
// Each Device is a bandwidth server: concurrent transfers in the same
// direction progress under processor sharing (n active transfers each
// receive bandwidth B/n). Transfer completions are simulation events, so the
// rest of the system observes realistic, contention-dependent I/O latencies
// without touching real disks.
package storage

import (
	"fmt"
	"time"
)

// Byte size units.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
	TB int64 = 1 << 40
)

// Media identifies a class of storage hardware. Lower values are faster;
// Memory is the highest storage tier and HDD the lowest, matching the
// three-tier setup in the paper's evaluation cluster.
type Media int

const (
	// Memory is the DRAM-backed tier.
	Memory Media = iota
	// SSD is the flash tier.
	SSD
	// HDD is the spinning-disk tier.
	HDD
	numMedia
)

// AllMedia lists the media from the highest (fastest) tier to the lowest.
var AllMedia = []Media{Memory, SSD, HDD}

// String implements fmt.Stringer.
func (m Media) String() string {
	switch m {
	case Memory:
		return "MEM"
	case SSD:
		return "SSD"
	case HDD:
		return "HDD"
	default:
		return fmt.Sprintf("Media(%d)", int(m))
	}
}

// Valid reports whether m is one of the known media.
func (m Media) Valid() bool { return m >= Memory && m < numMedia }

// Higher reports whether m is a strictly higher (faster) tier than other.
func (m Media) Higher(other Media) bool { return m < other }

// Lower reports whether m is a strictly lower (slower) tier than other.
func (m Media) Lower(other Media) bool { return m > other }

// Below returns the next tier below m, and false if m is the lowest tier.
func (m Media) Below() (Media, bool) {
	if m >= HDD {
		return m, false
	}
	return m + 1, true
}

// Above returns the next tier above m, and false if m is the highest tier.
func (m Media) Above() (Media, bool) {
	if m <= Memory {
		return m, false
	}
	return m - 1, true
}

// DeviceSpec describes one or more identical devices of a given media to
// attach to a node.
type DeviceSpec struct {
	Media    Media
	Capacity int64   // usable bytes per device
	ReadBW   float64 // bytes/second
	WriteBW  float64 // bytes/second
	Count    int     // number of identical devices
}

// NodeSpec is the full storage configuration of one worker node.
type NodeSpec []DeviceSpec

// TotalCapacity returns the aggregate capacity of the given media across the
// node, or of all media when media < 0.
func (s NodeSpec) TotalCapacity(media Media) int64 {
	var total int64
	for _, d := range s {
		if d.Media == media {
			total += d.Capacity * int64(d.Count)
		}
	}
	return total
}

// TierProfile is the service-time model of one storage tier.
type TierProfile struct {
	// BaseLatency is the fixed per-request access cost (seek/setup).
	BaseLatency time.Duration
	// ReadBW and WriteBW are the nominal channel bandwidths in bytes/second.
	ReadBW  float64
	WriteBW float64
}

// paperMedia is the one media table: per tier, the base latency and the
// nominal read and write bandwidth of the paper media. Every worker spec is
// built from it, and the data plane takes a request's base latency from the
// row of its device's tier. The bandwidths keep the relative tier speeds
// (mem ≫ SSD ≫ HDD) and the DFSIO throughput shape of Figure 2; the base
// latencies sit in the hardware's characteristic range, so that for any
// realistic transfer size the tiers order memory < SSD < HDD.
var paperMedia = [numMedia]TierProfile{
	Memory: {BaseLatency: 50 * time.Microsecond, ReadBW: 4000e6, WriteBW: 3000e6},
	SSD:    {BaseLatency: 200 * time.Microsecond, ReadBW: 500e6, WriteBW: 400e6},
	HDD:    {BaseLatency: 6 * time.Millisecond, ReadBW: 160e6, WriteBW: 140e6},
}

// DefaultTierProfiles returns the paper media table.
func DefaultTierProfiles() [3]TierProfile { return paperMedia }

// PaperMediaSpec is a worker of the paper media at the given per-device
// capacities: one memory device, one SSD and hdds HDDs.
func PaperMediaSpec(memCap, ssdCap, hddCap int64, hdds int) NodeSpec {
	device := func(m Media, capacity int64, count int) DeviceSpec {
		return DeviceSpec{Media: m, Capacity: capacity, ReadBW: paperMedia[m].ReadBW, WriteBW: paperMedia[m].WriteBW, Count: count}
	}
	return NodeSpec{device(Memory, memCap, 1), device(SSD, ssdCap, 1), device(HDD, hddCap, hdds)}
}

// PaperWorkerSpec reproduces the per-worker storage configuration of the
// paper's testbed (Section 7): 4 GB of memory tier, 64 GB of SSD, and 400 GB
// of HDD spread over three disks.
func PaperWorkerSpec() NodeSpec { return PaperMediaSpec(4*GB, 64*GB, 134*GB, 3) }

// SmallWorkerSpec is a scaled-down configuration convenient for unit tests
// and examples: 64 MB memory, 256 MB SSD, 1 GB HDD.
func SmallWorkerSpec() NodeSpec { return PaperMediaSpec(64*MB, 256*MB, 1*GB, 1) }
