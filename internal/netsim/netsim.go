// Package netsim is the discrete-virtual-time network simulator behind
// the enforcement experiments (Sect. VI-C): hosts attached to a
// Security Gateway running the sdn switch, per-link latencies, optional
// background flows, and a resource model calibrated to the paper's
// Raspberry Pi 2 deployment.
//
// Everything the switch and controller do is the real implementation —
// rule-cache lookups, flow-table hits, packet-in decisions all execute.
// Only physical quantities the paper measured on hardware (radio
// propagation, the Pi's Java controller per-event cost, process memory
// of the OVS+Floodlight stack) are modelled as documented constants, so
// the reproduced curves have the paper's scale while their *slopes*
// come from real code.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// HostKind classifies simulated hosts.
type HostKind int

// Host kinds.
const (
	// KindDevice is a WiFi client device (D1..Dn in Fig 4).
	KindDevice HostKind = iota + 1
	// KindLocalServer is a wired host in the local network (S_local).
	KindLocalServer
	// KindRemoteServer is an Internet host (S_remote, the EC2 server).
	KindRemoteServer
)

// Host is one endpoint attached to the gateway.
type Host struct {
	Name string
	MAC  packet.MAC
	IP   netip.Addr
	Kind HostKind
	// Latency is the one-way latency between the host and the
	// gateway's forwarding plane (for remote hosts it includes the WAN
	// leg).
	Latency time.Duration
	// Jitter is the half-width of the uniform per-traversal jitter.
	Jitter time.Duration
}

// Model holds the hardware-calibrated constants of the Raspberry Pi 2
// gateway deployment.
type Model struct {
	// PacketInCost is the controller's per-packet-in processing cost
	// (Floodlight on the Pi).
	PacketInCost time.Duration
	// TableHitCost is the per-packet fast-path cost with filtering.
	TableHitCost time.Duration
	// BridgeCost is the per-packet forwarding cost without filtering.
	BridgeCost time.Duration
	// QueueDelayPerFlow is the extra per-traversal queueing delay each
	// concurrent background flow adds.
	QueueDelayPerFlow time.Duration

	// BaseCPUPercent is the gateway's idle-network CPU utilization.
	BaseCPUPercent float64
	// CPUPerFlow is the additional CPU percentage per concurrent flow.
	CPUPerFlow float64
	// FilteringCPUExtra is the additive CPU cost of enforcement.
	FilteringCPUExtra float64

	// BaseMemoryMB is the OVS+controller resident set with no rules.
	BaseMemoryMB float64
	// FilteringMemoryMB is the fixed resident cost of loading the
	// enforcement module into the controller.
	FilteringMemoryMB float64
	// MemoryPerRuleKB is the per-enforcement-rule resident cost of the
	// Java controller (the Go-side cache cost is measured, not
	// modelled, and reported separately).
	MemoryPerRuleKB float64
}

// DefaultModel returns constants calibrated so that an unloaded network
// reproduces the scale of Table V, Table VI and Fig 6.
func DefaultModel() Model {
	return Model{
		PacketInCost:      1200 * time.Microsecond,
		TableHitCost:      45 * time.Microsecond,
		BridgeCost:        25 * time.Microsecond,
		QueueDelayPerFlow: 9 * time.Microsecond,
		BaseCPUPercent:    36.5,
		CPUPerFlow:        0.075,
		FilteringCPUExtra: 0.6,
		BaseMemoryMB:      38,
		FilteringMemoryMB: 2.9,
		MemoryPerRuleKB:   2.8,
	}
}

// Network simulates the Fig 4 lab: hosts behind one Security Gateway.
type Network struct {
	model  Model
	sw     *sdn.Switch
	rng    *rand.Rand
	hosts  map[string]*Host
	clock  time.Time
	bgKeys []packet.FlowKey
	// wirelessRedirect models the Sect. V wireless-isolation fix: on a
	// stock AP, traffic between two wireless clients is bridged in the
	// radio driver and never reaches the OVS data plane. IoT Sentinel
	// uses the AP's wireless-isolation feature plus OpenWRT drivers to
	// redirect that traffic through the switch. When false, wireless
	// device-to-device traffic bypasses enforcement entirely.
	wirelessRedirect bool
}

// New wires a network to a switch. The switch's controller decides
// every first packet of a flow; pass a controller with filtering
// disabled for the baseline runs.
func New(sw *sdn.Switch, model Model, seed int64) *Network {
	return &Network{
		model:            model,
		sw:               sw,
		rng:              rand.New(rand.NewSource(seed)),
		hosts:            make(map[string]*Host),
		clock:            time.Unix(1460100000, 0).UTC(),
		wirelessRedirect: true,
	}
}

// Switch exposes the underlying switch.
func (n *Network) Switch() *sdn.Switch { return n.sw }

// AddHost attaches a host.
func (n *Network) AddHost(h Host) error {
	if h.Name == "" {
		return fmt.Errorf("netsim: host needs a name")
	}
	if _, ok := n.hosts[h.Name]; ok {
		return fmt.Errorf("netsim: duplicate host %q", h.Name)
	}
	cp := h
	n.hosts[h.Name] = &cp
	return nil
}

// Host returns a host by name.
func (n *Network) Host(name string) (*Host, error) {
	h, ok := n.hosts[name]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown host %q", name)
	}
	return h, nil
}

// Hosts lists host names sorted.
func (n *Network) Hosts() []string {
	out := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetBackgroundFlows replaces the set of concurrent background flows
// with k synthetic flows and pushes one packet of each through the
// switch so they occupy real flow-table entries.
func (n *Network) SetBackgroundFlows(k int) {
	n.bgKeys = n.bgKeys[:0]
	for i := 0; i < k; i++ {
		src := packet.MAC{0x02, 0xbb, byte(i >> 8), byte(i), 0, 1}
		dst := packet.MAC{0x02, 0xbb, byte(i >> 8), byte(i), 0, 2}
		key := packet.FlowKey{
			SrcMAC: src, DstMAC: dst,
			SrcIP:     netip.AddrFrom4([4]byte{192, 168, 2, byte(1 + i%250)}),
			DstIP:     netip.AddrFrom4([4]byte{192, 168, 3, byte(1 + i%250)}),
			Proto:     packet.TransportUDP,
			SrcPort:   uint16(20000 + i),
			DstPort:   9999,
			Ethertype: packet.EtherTypeIPv4,
		}
		n.bgKeys = append(n.bgKeys, key)
		pk := &packet.Packet{
			Link: packet.LinkEthernet, Network: packet.NetIPv4,
			SrcMAC: key.SrcMAC, DstMAC: key.DstMAC,
			SrcIP: key.SrcIP, DstIP: key.DstIP,
			Transport: packet.TransportUDP,
			SrcPort:   key.SrcPort, DstPort: key.DstPort, Size: 128,
		}
		n.sw.Process(pk, n.clock)
	}
}

// BackgroundFlows returns the current concurrent-flow count.
func (n *Network) BackgroundFlows() int { return len(n.bgKeys) }

// PingResult is one round-trip measurement.
type PingResult struct {
	RTT       time.Duration
	Delivered bool
}

// Ping sends one ICMP echo from src to dst through the gateway and
// returns the simulated round-trip time. A drop in either direction
// reports Delivered=false.
func (n *Network) Ping(src, dst string) (PingResult, error) {
	s, err := n.Host(src)
	if err != nil {
		return PingResult{}, err
	}
	d, err := n.Host(dst)
	if err != nil {
		return PingResult{}, err
	}

	req := packet.NewICMPEcho(s.MAC, d.MAC, s.IP, d.IP, 56)
	rep := packet.NewICMPEcho(d.MAC, s.MAC, d.IP, s.IP, 56)

	rtt := n.traverse(s, d, req)
	if rtt < 0 {
		n.advance(time.Millisecond)
		return PingResult{Delivered: false}, nil
	}
	back := n.traverse(d, s, rep)
	if back < 0 {
		n.advance(time.Millisecond)
		return PingResult{Delivered: false}, nil
	}
	total := rtt + back
	n.advance(total)
	return PingResult{RTT: total, Delivered: true}, nil
}

// SetWirelessRedirect toggles the Sect. V redirection of bridged
// wireless-to-wireless traffic through the switch. Disabling it
// reproduces a stock AP, where device-to-device traffic escapes
// enforcement.
func (n *Network) SetWirelessRedirect(on bool) { n.wirelessRedirect = on }

// traverse pushes one packet through the switch and returns the one-way
// latency, or a negative duration when the switch dropped it.
func (n *Network) traverse(from, to *Host, pk *packet.Packet) time.Duration {
	if !n.wirelessRedirect && from.Kind == KindDevice && to.Kind == KindDevice {
		// Stock-AP behaviour: the radio bridges wireless clients
		// directly; the packet never reaches the data plane.
		lat := from.Latency + to.Latency
		lat += n.jitter(from.Jitter) + n.jitter(to.Jitter)
		return lat
	}
	action, hit := n.sw.ProcessHit(pk, n.clock)
	if action != sdn.ActionForward {
		return -1
	}

	lat := from.Latency + to.Latency
	lat += n.jitter(from.Jitter) + n.jitter(to.Jitter)
	// Gateway processing: modelled Pi-scale cost depending on which
	// path the real switch took.
	if !n.sw.Controller().Filtering() {
		lat += n.model.BridgeCost
	} else if hit {
		lat += n.model.TableHitCost
	} else {
		lat += n.model.PacketInCost
	}
	lat += time.Duration(len(n.bgKeys)) * n.model.QueueDelayPerFlow
	return lat
}

func (n *Network) jitter(half time.Duration) time.Duration {
	if half <= 0 {
		return 0
	}
	return time.Duration(n.rng.Int63n(int64(2*half))) - half
}

func (n *Network) advance(d time.Duration) { n.clock = n.clock.Add(d + time.Millisecond) }

// Clock returns the current virtual time.
func (n *Network) Clock() time.Time { return n.clock }

// LatencyStat aggregates repeated ping measurements.
type LatencyStat struct {
	Mean      time.Duration
	StdDev    time.Duration
	Delivered int
	Lost      int
}

// MeasureLatency pings iters times and aggregates delivered round trips.
func (n *Network) MeasureLatency(src, dst string, iters int) (LatencyStat, error) {
	var stat LatencyStat
	var samples []float64
	for i := 0; i < iters; i++ {
		res, err := n.Ping(src, dst)
		if err != nil {
			return LatencyStat{}, err
		}
		if !res.Delivered {
			stat.Lost++
			continue
		}
		stat.Delivered++
		samples = append(samples, float64(res.RTT))
	}
	if len(samples) == 0 {
		return stat, nil
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, s := range samples {
		sq += (s - mean) * (s - mean)
	}
	stat.Mean = time.Duration(mean)
	if len(samples) > 1 {
		stat.StdDev = time.Duration(math.Sqrt(sq / float64(len(samples)-1)))
	}
	return stat, nil
}

// CPUUtilization returns the modelled gateway CPU percentage for the
// current concurrent-flow count (Fig 6b).
func (n *Network) CPUUtilization() float64 {
	cpu := n.model.BaseCPUPercent + float64(len(n.bgKeys))*n.model.CPUPerFlow
	if n.sw.Controller().Filtering() {
		cpu += n.model.FilteringCPUExtra
	}
	if cpu > 100 {
		cpu = 100
	}
	return cpu
}

// MemoryMB returns the modelled gateway memory consumption for the
// current enforcement-rule count (Fig 6c), plus the rule cache's
// estimated footprint (RuleCache.ApproxBytes).
func (n *Network) MemoryMB() float64 {
	rules := n.sw.Controller().Rules()
	modelled := n.model.BaseMemoryMB + float64(rules.Len())*n.model.MemoryPerRuleKB/1024
	if n.sw.Controller().Filtering() {
		modelled += n.model.FilteringMemoryMB
	}
	return modelled + float64(rules.ApproxBytes())/(1024*1024)
}
