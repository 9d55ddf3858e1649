package report

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/sdn/openflow"
)

// RemoteControllerResult compares per-flow decision latency for the
// paper's two deployment options: controller co-located with the data
// plane (the Raspberry Pi setup the paper evaluated) versus controller
// on a separate machine reached over the OpenFlow control channel (the
// OpenWRT OF-AP setup it describes but did not measure).
type RemoteControllerResult struct {
	Samples      int
	LocalMean    time.Duration
	LocalMedian  time.Duration
	LocalP99     time.Duration
	RemoteMean   time.Duration
	RemoteMedian time.Duration
	RemoteP99    time.Duration
	RemoteRatio  float64
}

// RemoteController measures both paths with real code: in-process
// calls for the local path, TCP round trips for the remote one.
func RemoteController(o Options) (*RemoteControllerResult, error) {
	o = o.normalize()
	const samples = 500

	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.MustParsePrefix("192.168.0.0/16"))
	cache.Put(&sdn.EnforcementRule{
		DeviceMAC: packet.MAC{2, 1, 1, 1, 1, 1}, Level: sdn.Trusted,
	})
	srv := openflow.NewServer(ctrl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("remote-controller: %w", err)
	}
	defer func() { _ = srv.Close() }()
	client, err := openflow.Dial(addr.String())
	if err != nil {
		return nil, fmt.Errorf("remote-controller: %w", err)
	}
	defer func() { _ = client.Close() }()

	key := packet.FlowKey{
		SrcMAC: packet.MAC{2, 1, 1, 1, 1, 1},
		DstMAC: packet.MAC{2, 2, 2, 2, 2, 2},
		SrcIP:  netip.MustParseAddr("192.168.1.10"),
		DstIP:  netip.MustParseAddr("93.184.216.34"),
		Proto:  packet.TransportTCP, SrcPort: 40000, DstPort: 443,
		Ethertype: packet.EtherTypeIPv4,
	}
	measure := func(decide func() sdn.Action) ([]time.Duration, error) {
		out := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			start := time.Now()
			if act := decide(); act != sdn.ActionForward {
				return nil, fmt.Errorf("remote-controller: unexpected drop")
			}
			out = append(out, time.Since(start))
		}
		return out, nil
	}
	local, err := measure(func() sdn.Action {
		return ctrl.PacketIn(key, time.Now()).Action
	})
	if err != nil {
		return nil, err
	}
	remote, err := measure(func() sdn.Action {
		return client.PacketIn(key, time.Now()).Action
	})
	if err != nil {
		return nil, err
	}

	res := &RemoteControllerResult{Samples: samples}
	res.LocalMean, res.LocalMedian, res.LocalP99 = meanP99(local)
	res.RemoteMean, res.RemoteMedian, res.RemoteP99 = meanP99(remote)
	if res.LocalMean > 0 {
		res.RemoteRatio = float64(res.RemoteMean) / float64(res.LocalMean)
	}
	return res, nil
}

// Render formats the comparison.
func (r *RemoteControllerResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Remote controller — per-flow decision latency, %d samples each\n", r.Samples)
	fmt.Fprintf(&b, "(deployment option 2 of Sect. VI-C: controller on a separate machine)\n\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "deployment", "mean", "median", "p99")
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "co-located (in-process)", fmtDur(r.LocalMean), fmtDur(r.LocalMedian), fmtDur(r.LocalP99))
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "remote (TCP control channel)", fmtDur(r.RemoteMean), fmtDur(r.RemoteMedian), fmtDur(r.RemoteP99))
	fmt.Fprintf(&b, "\nremote/local mean ratio: %.0fx — paid once per flow, amortized by the\n", r.RemoteRatio)
	fmt.Fprintf(&b, "flow-table fast path, which is why Fig 6a stays flat in either deployment\n")
	return b.String()
}

// meanP99 returns the samples' mean, median and 99th percentile.
func meanP99(samples []time.Duration) (mean, median, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	mean = sum / time.Duration(len(sorted))
	return mean, sorted[len(sorted)/2], sorted[len(sorted)*99/100]
}
