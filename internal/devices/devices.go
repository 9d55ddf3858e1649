// Package devices models the 27 consumer IoT device-types of Table II
// in the IoT Sentinel paper and synthesizes the setup-phase traffic each
// emits when inducted into a home network.
//
// Each device-type is described by a behavioural profile: which
// protocols it speaks during setup (EAPoL association, DHCP, ARP, DNS,
// mDNS, SSDP, NTP, HTTP(S) to vendor cloud endpoints), in what order,
// with which message sizes, plus stochastic knobs (optional steps,
// retransmissions, reorderings) that reproduce run-to-run variation.
// Same-vendor sibling devices (the D-Link sensor family, the two
// TP-Link plugs, the two Edimax plugs and the two Smarter appliances)
// share near-identical profiles, because the physical devices share
// hardware and firmware — this reproduces the confusion structure of
// Table III.
package devices

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"time"

	"iotsentinel/internal/packet"
)

// Connectivity is a bitmask of the technologies a device supports
// (Table II columns).
type Connectivity uint8

// Connectivity flags.
const (
	WiFi Connectivity = 1 << iota
	ZigBee
	Ethernet
	ZWave
	Other
)

// Has reports whether c includes flag f.
func (c Connectivity) Has(f Connectivity) bool { return c&f != 0 }

// String lists the technologies, e.g. "wifi+ethernet".
func (c Connectivity) String() string {
	var out string
	add := func(f Connectivity, name string) {
		if c.Has(f) {
			if out != "" {
				out += "+"
			}
			out += name
		}
	}
	add(WiFi, "wifi")
	add(ZigBee, "zigbee")
	add(Ethernet, "ethernet")
	add(ZWave, "zwave")
	add(Other, "other")
	if out == "" {
		out = "none"
	}
	return out
}

// cloudEndpoint describes one remote service a device contacts during
// setup.
type cloudEndpoint struct {
	host string
	// https selects TLS on 443 vs plain HTTP on 80.
	https bool
	// helloLens is the discrete alphabet of TLS ClientHello body
	// lengths (or HTTP request paths lengths) the firmware produces;
	// one is chosen per capture.
	helloLens []int
	httpPath  string
	// followUps is the number of additional data segments exchanged.
	followUps int
	// followUpLen is the discrete alphabet of follow-up segment sizes.
	followUpLens []int
}

// optionalStep is a step emitted with the given probability per capture.
type optionalStep struct {
	prob float64
	step stepFunc
}

// traits is the full behavioural description of a device-type's setup.
type traits struct {
	eapol       bool
	eapolKeyLen int
	dhcpHost    string
	arpProbes   int
	llcFrames   int
	icmpProbe   bool
	// ipv6Chatter emits the ICMPv6 router solicitation and DHCPv6
	// solicit a dual-stack device sends while bringing up its
	// interface.
	ipv6Chatter bool
	dnsNames    []string
	mdnsNames   []string
	ssdpTargets []string
	ntp         bool
	cloud       []cloudEndpoint
	optional    []optionalStep
	// dupProb is the per-packet retransmission probability.
	dupProb float64
	// swapProb is the probability of swapping each pair of adjacent
	// steps (models reordering between independent protocol exchanges).
	swapProb float64
	// dynamicPorts selects ephemeral source ports from the dynamic
	// range instead of the registered range.
	dynamicPorts bool
}

// Profile describes one device-type of Table II.
type Profile struct {
	// ID is the device-type identifier used throughout the pipeline.
	ID string
	// Vendor and Model match Table II.
	Vendor string
	Model  string
	// OUI is the vendor prefix for generated MAC addresses.
	OUI [3]byte
	// Conn lists the supported connectivity technologies.
	Conn Connectivity

	traits traits
	// steps is the fixed part of every capture's step list, built from
	// traits once, when the profile is (see traits.fixedSteps): a step
	// holds no state of its own, so captures share them.
	steps []stepFunc
}

// MAC derives a device MAC address with the vendor OUI and a random
// device suffix.
func (p *Profile) MAC(rng *rand.Rand) packet.MAC {
	var m packet.MAC
	copy(m[:3], p.OUI[:])
	m[3] = byte(rng.Intn(256))
	m[4] = byte(rng.Intn(256))
	m[5] = byte(rng.Intn(256))
	m[0] &^= 0x01 // keep unicast
	return m
}

// Capture is one synthesized setup-phase observation of a device.
type Capture struct {
	Type    string
	MAC     packet.MAC
	Packets []*packet.Packet
	// Times holds one capture timestamp per packet.
	Times []time.Time
}

// genCtx carries the per-capture state the step functions share.
type genCtx struct {
	rng     *rand.Rand
	profile *Profile
	mac     packet.MAC
	gwMAC   packet.MAC
	devIP   netip.Addr
	gwIP    netip.Addr
	out     []*packet.Packet
}

type stepFunc func(*genCtx)

func (c *genCtx) emit(p *packet.Packet) { c.out = append(c.out, p) }

// srcPort draws an ephemeral source port from the profile's range.
func (c *genCtx) srcPort() uint16 {
	if c.profile.traits.dynamicPorts {
		return uint16(49152 + c.rng.Intn(65536-49152))
	}
	return uint16(10000 + c.rng.Intn(30000))
}

// cloudIP derives a stable pseudo-public address for a host name.
func cloudIP(host string) netip.Addr {
	h := fnv.New32a()
	_, _ = h.Write([]byte(host))
	s := h.Sum32()
	return netip.AddrFrom4([4]byte{52, byte(16 + s%32), byte(s >> 8), byte(1 + s>>16&0x7f)})
}

// Generate synthesizes one setup capture for the profile.
func (p *Profile) Generate(rng *rand.Rand) Capture {
	ctx := &genCtx{
		rng:     rng,
		profile: p,
		mac:     p.MAC(rng),
		gwMAC:   GatewayMAC(),
		devIP:   deviceIP(rng),
		gwIP:    gatewayIP(),
	}
	steps := p.captureSteps(rng)

	// Reordering: swap adjacent independent steps with swapProb. The
	// first two steps (association + DHCP) always stay in place.
	for i := 3; i < len(steps); i++ {
		if rng.Float64() < p.traits.swapProb {
			steps[i-1], steps[i] = steps[i], steps[i-1]
		}
	}
	for _, s := range steps {
		s(ctx)
	}

	// Retransmissions: duplicate packets in place with dupProb. The
	// fingerprint's consecutive-duplicate removal absorbs these.
	if p.traits.dupProb > 0 {
		dup := make([]*packet.Packet, 0, len(ctx.out)+4)
		for _, pk := range ctx.out {
			dup = append(dup, pk)
			if rng.Float64() < p.traits.dupProb {
				dup = append(dup, pk)
			}
		}
		ctx.out = dup
	}

	// Timestamps: inter-packet gaps of 20..800 ms, so a setup of about
	// 15 packets spans about 6 s (11 s at most over the 27 types).
	// Every gap is below the 10 s default idle gap that ends a setup
	// capture.
	times := make([]time.Time, len(ctx.out))
	ts := time.Unix(1460000000, 0).UTC().Add(time.Duration(rng.Intn(1000)) * time.Second)
	for i := range ctx.out {
		ts = ts.Add(time.Duration(20+rng.Intn(780)) * time.Millisecond)
		times[i] = ts
	}
	return Capture{Type: p.ID, MAC: ctx.mac, Packets: ctx.out, Times: times}
}

// captureSteps assembles the ordered step list for one capture: a copy
// of the profile's fixed steps, then each optional step that its draw
// selects.
func (p *Profile) captureSteps(rng *rand.Rand) []stepFunc {
	optional := p.traits.optional
	steps := make([]stepFunc, len(p.steps), len(p.steps)+len(optional))
	copy(steps, p.steps)
	for _, opt := range optional {
		if rng.Float64() < opt.prob {
			steps = append(steps, opt.step)
		}
	}
	return steps
}

// fixedSteps is the step list every capture of t starts with, in order.
func (t *traits) fixedSteps() []stepFunc {
	var steps []stepFunc

	if t.eapol {
		steps = append(steps, stepEAPoL(t.eapolKeyLen))
	}
	if t.llcFrames > 0 {
		steps = append(steps, stepLLC(t.llcFrames))
	}
	steps = append(steps, stepDHCP(t.dhcpHost))
	if t.arpProbes > 0 {
		steps = append(steps, stepARP(t.arpProbes))
	}
	if t.icmpProbe {
		steps = append(steps, stepICMP())
	}
	if t.ipv6Chatter {
		steps = append(steps, stepIPv6Chatter())
	}
	for _, name := range t.mdnsNames {
		steps = append(steps, stepMDNS(name))
	}
	for _, target := range t.ssdpTargets {
		steps = append(steps, stepSSDP(target))
	}
	for _, name := range t.dnsNames {
		steps = append(steps, stepDNS(name))
	}
	if t.ntp {
		steps = append(steps, stepNTP())
	}
	for _, ep := range t.cloud {
		steps = append(steps, stepCloud(ep))
	}
	return steps
}

func stepEAPoL(keyLen int) stepFunc {
	return func(c *genCtx) {
		// 4-way handshake: the device originates messages 2 and 4.
		c.emit(packet.NewEAPoL(c.mac, c.gwMAC, keyLen))
		c.emit(packet.NewEAPoL(c.mac, c.gwMAC, keyLen+22))
	}
}

func stepLLC(n int) stepFunc {
	return func(c *genCtx) {
		for i := 0; i < n; i++ {
			c.emit(packet.NewLLC(c.mac, packet.MAC{0x01, 0x80, 0xc2, 0, 0, 0}, []byte{0, 0, 0, 2}))
		}
	}
}

func stepDHCP(host string) stepFunc {
	return func(c *genCtx) {
		xid := c.rng.Uint32()
		c.emit(packet.NewDHCPDiscover(c.mac, xid, host))
		c.emit(packet.NewDHCPRequest(c.mac, xid, c.devIP, host))
	}
}

func stepARP(n int) stepFunc {
	return func(c *genCtx) {
		for i := 0; i < n; i++ {
			c.emit(packet.NewARP(c.mac, c.devIP, c.gwIP))
		}
	}
}

func stepICMP() stepFunc {
	return func(c *genCtx) {
		c.emit(packet.NewICMPEcho(c.mac, c.gwMAC, c.devIP, c.gwIP, 32))
	}
}

// stepIPv6Chatter emits the dual-stack interface bring-up: an ICMPv6
// router solicitation to ff02::2 and a DHCPv6 solicit to ff02::1:2.
func stepIPv6Chatter() stepFunc {
	return func(c *genCtx) {
		ll := linkLocalFor(c.mac)
		c.emit(packet.NewICMPEcho(c.mac, packet.MAC{0x33, 0x33, 0, 0, 0, 2},
			ll, netip.MustParseAddr("ff02::2"), 8))
		c.emit(packet.NewUDP(c.mac, packet.MAC{0x33, 0x33, 0, 1, 0, 2},
			ll, netip.MustParseAddr("ff02::1:2"),
			packet.PortDHCPv6Cli, packet.PortDHCPv6Srv, make([]byte, 56)))
	}
}

// linkLocalFor derives the EUI-64 style link-local address of a MAC.
func linkLocalFor(mac packet.MAC) netip.Addr {
	var a [16]byte
	a[0], a[1] = 0xfe, 0x80
	a[8] = mac[0] ^ 0x02
	a[9], a[10] = mac[1], mac[2]
	a[11], a[12] = 0xff, 0xfe
	a[13], a[14], a[15] = mac[3], mac[4], mac[5]
	return netip.AddrFrom16(a)
}

func stepMDNS(name string) stepFunc {
	return func(c *genCtx) {
		pk, err := packet.NewMDNSQuery(c.mac, c.devIP, name)
		if err == nil {
			c.emit(pk)
		}
	}
}

func stepSSDP(target string) stepFunc {
	return func(c *genCtx) {
		c.emit(packet.NewSSDPSearch(c.mac, c.devIP, c.srcPort(), target))
	}
}

func stepDNS(name string) stepFunc {
	return func(c *genCtx) {
		pk, err := packet.NewDNSQuery(c.mac, c.gwMAC, c.devIP, c.gwIP, c.srcPort(), name)
		if err == nil {
			c.emit(pk)
		}
	}
}

func stepNTP() stepFunc {
	return func(c *genCtx) {
		c.emit(packet.NewNTPRequest(c.mac, c.gwMAC, c.devIP, cloudIP("pool.ntp.org"), c.srcPort()))
	}
}

func stepCloud(ep cloudEndpoint) stepFunc {
	return func(c *genCtx) {
		dst := cloudIP(ep.host)
		sport := c.srcPort()
		if ep.https {
			hello := ep.helloLens[c.rng.Intn(len(ep.helloLens))]
			c.emit(packet.NewTCPSyn(c.mac, c.gwMAC, c.devIP, dst, sport, packet.PortHTTPS))
			c.emit(packet.NewTLSClientHello(c.mac, c.gwMAC, c.devIP, dst, sport, hello))
		} else {
			c.emit(packet.NewTCPSyn(c.mac, c.gwMAC, c.devIP, dst, sport, packet.PortHTTP))
			c.emit(packet.NewHTTPGet(c.mac, c.gwMAC, c.devIP, dst, sport, ep.host, ep.httpPath))
		}
		for i := 0; i < ep.followUps; i++ {
			n := ep.followUpLens[c.rng.Intn(len(ep.followUpLens))]
			dstPort := uint16(packet.PortHTTPS)
			if !ep.https {
				dstPort = packet.PortHTTP
			}
			c.emit(packet.NewTCP(c.mac, c.gwMAC, c.devIP, dst, sport, dstPort, make([]byte, n)))
		}
	}
}

// ProfileByID returns the catalog profile with the given ID.
func ProfileByID(id string) (*Profile, error) {
	for _, p := range catalog() {
		if p.ID == id {
			cp := *p
			return &cp, nil
		}
	}
	return nil, fmt.Errorf("devices: unknown device-type %q", id)
}

// GatewayMAC returns the simulated gateway's MAC address used by the
// traffic generators.
func GatewayMAC() packet.MAC {
	return packet.MAC{0x02, 0x1a, 0x11, 0x00, 0x00, 0x01}
}

func deviceIP(rng *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{192, 168, 1, byte(20 + rng.Intn(200))})
}

func gatewayIP() netip.Addr {
	return netip.AddrFrom4([4]byte{192, 168, 1, 1})
}
