// Command sentinel runs the full IoT Sentinel pipeline end to end as a
// demonstration: it trains the IoT Security Service on the reference
// dataset, boots a Security Gateway, replays the setup traffic of a few
// new devices, and prints the identification and enforcement outcome
// for each, followed by example enforcement decisions.
//
// Usage:
//
//	sentinel
//	sentinel -devices EdnetCam,iKettle2,HueBridge -captures 20 -seed 1
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/netip"
	"os"
	"strings"
	"time"

	"iotsentinel"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sentinel:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sentinel", flag.ContinueOnError)
	var (
		deviceList = fs.String("devices", "EdnetCam,iKettle2,HueBridge",
			"comma-separated device-types to onboard")
		captures = fs.Int("captures", 20, "training captures per device-type")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintf(out, "training IoT Security Service on %d captures x 27 device-types...\n", *captures)
	ds := iotsentinel.ReferenceDataset(*captures, *seed)
	ks := iotsentinel.NewKeystore()
	s, err := iotsentinel.NewSentinel(ds,
		iotsentinel.WithSeed(*seed),
		iotsentinel.WithKeystore(ks),
	)
	if err != nil {
		return err
	}
	// Register each device-type's vendor cloud endpoints so Restricted
	// devices keep their cloud functionality.
	for _, typ := range iotsentinel.DeviceTypes() {
		s.Service.SetEndpoints(typ, vendorEndpoints(string(typ)))
	}

	fmt.Fprintln(out, "gateway online; onboarding devices:")
	for di, name := range strings.Split(*deviceList, ",") {
		name = strings.TrimSpace(name)
		caps, err := iotsentinel.GenerateSetupTraffic(iotsentinel.DeviceType(name), 1, *seed+100+int64(di))
		if err != nil {
			return err
		}
		c := caps[0]
		fmt.Fprintf(out, "\n=== new device %v joins and performs its setup (%d packets)\n",
			c.MAC, len(c.Packets))
		for i, pk := range c.Packets {
			if _, err := s.Gateway.HandlePacket(c.Times[i], pk); err != nil {
				return err
			}
		}
		if err := s.Gateway.FinishSetup(c.MAC, c.Times[len(c.Times)-1]); err != nil {
			return err
		}
		info, _ := s.Gateway.Device(c.MAC)
		fmt.Fprintf(out, "    identified as: %s\n", orUnknown(string(info.Type)))
		fmt.Fprintf(out, "    isolation level: %s\n", info.Level)
		for _, v := range info.Vulnerabilities {
			fmt.Fprintf(out, "    vulnerability: %s (%s) — %s\n", v.ID, v.Severity, v.Summary)
		}
		if err := demoEnforcement(out, s, c.MAC, info.Level, c.Times[len(c.Times)-1]); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "\nWPS keystore: %d device-specific PSKs issued\n", ks.Len())
	fmt.Fprintln(out, "\nenforcement-rule cache:")
	for _, r := range s.Controller.Rules().Rules() {
		fmt.Fprintf(out, "  %v  %-10s  type=%s  permitted=%d\n",
			r.DeviceMAC, r.Level, orUnknown(r.DeviceType), len(r.PermittedIPs))
	}
	return nil
}

// demoEnforcement probes the installed policy with two flows: one to a
// permitted endpoint (if any) and one to an arbitrary Internet host.
func demoEnforcement(out io.Writer, s *iotsentinel.Sentinel, mac iotsentinel.MAC, level iotsentinel.IsolationLevel, ts time.Time) error {
	devIP := netip.MustParseAddr("192.168.1.66")
	gw := packet.MAC{0x02, 0x1a, 0x11, 0, 0, 1}
	probe := func(label string, dst netip.Addr) error {
		pk := packet.NewTCPSyn(mac, gw, devIP, dst, 40123, 443)
		act, err := s.Gateway.HandlePacket(ts.Add(time.Minute), pk)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "    flow to %-28s -> %s\n", label, act)
		return nil
	}
	rule, ok := s.Controller.Rules().Get(mac)
	if ok && level == sdn.Restricted && len(rule.PermittedIPs) > 0 {
		if err := probe("vendor cloud ("+rule.PermittedIPs[0].String()+")", rule.PermittedIPs[0]); err != nil {
			return err
		}
	}
	return probe("internet host (93.184.216.34)", netip.MustParseAddr("93.184.216.34"))
}

func vendorEndpoints(typ string) []netip.Addr {
	// Derive one stable pseudo-endpoint per type; a real deployment
	// would resolve the vendor's published service names.
	h := fnv.New32a()
	_, _ = h.Write([]byte(typ))
	s := h.Sum32()
	return []netip.Addr{netip.AddrFrom4([4]byte{52, 30, byte(s), byte(1 + s>>8&0x7f)})}
}

func orUnknown(s string) string {
	if s == "" {
		return "UNKNOWN"
	}
	return s
}
