package devices

import "sync"

// Catalog returns the 27 device-type profiles of Table II. Profiles are
// freshly allocated on each call so callers may not mutate shared state.
//
// Within each same-vendor sibling group (D-Link sensor family, TP-Link
// plugs, Edimax plugs, Smarter appliances) the profiles are nearly
// identical — identical protocol sequences and message-size alphabets,
// differing only in the probability of optional steps — because the
// physical devices share hardware and firmware. Everything else gets a
// distinct protocol mix, reproducing Fig 5 / Table III's structure.
func Catalog() []*Profile {
	shared := catalog()
	ps := make([]Profile, len(shared))
	out := make([]*Profile, len(shared))
	for i, p := range shared {
		ps[i] = *p
		out[i] = &ps[i]
	}
	return out
}

// catalog builds the profiles once. Nothing writes a profile's traits or
// steps after its constructor returns (WithFirmwareUpdate copies what it
// changes), so Catalog's copies share them.
var catalog = sync.OnceValue(func() []*Profile {
	ps := []*Profile{
		aria(), homeMaticPlug(), withings(), maxGateway(), hueBridge(),
		hueSwitch(), ednetGateway(), ednetCam(), edimaxCam(), lightify(),
		wemoInsightSwitch(), wemoLink(), wemoSwitch(), dlinkHomeHub(),
		dlinkDoorSensor(), dlinkDayCam(), dlinkCam(), dlinkSwitch(),
		dlinkWaterSensor(), dlinkSiren(), dlinkSensor(),
		tplinkPlugHS110(), tplinkPlugHS100(),
		edimaxPlug1101W(), edimaxPlug2101W(),
		smarterCoffee(), iKettle2(),
	}
	for _, p := range ps {
		p.steps = p.traits.fixedSteps()
	}
	return ps
})

// SiblingGroups lists the same-vendor sibling clusters whose members the
// paper reports as mutually confusable (Table III).
func SiblingGroups() [][]string {
	return [][]string{
		{"D-LinkSwitch", "D-LinkWaterSensor", "D-LinkSiren", "D-LinkSensor"},
		{"TP-LinkPlugHS110", "TP-LinkPlugHS100"},
		{"EdimaxPlug1101W", "EdimaxPlug2101W"},
		{"SmarterCoffee", "iKettle2"},
	}
}

func aria() *Profile {
	return &Profile{
		ID: "Aria", Vendor: "Fitbit", Model: "Aria WiFi-enabled scale",
		OUI: [3]byte{0x20, 0xbb, 0xc0}, Conn: WiFi,
		traits: traits{
			eapol: true, eapolKeyLen: 95,
			dhcpHost: "Aria", arpProbes: 2,
			dnsNames: []string{"fitbit.com", "api.fitbit.com"},
			cloud: []cloudEndpoint{
				{host: "api.fitbit.com", https: true, helloLens: []int{289, 297}, followUps: 2, followUpLens: []int{310, 470}},
			},
			dupProb: 0.08, swapProb: 0.1,
		},
	}
}

func homeMaticPlug() *Profile {
	// BidCoS radio device behind its own LAN adapter: no WiFi
	// association, sparse burst of UDP multicast chatter.
	return &Profile{
		ID: "HomeMaticPlug", Vendor: "Homematic", Model: "HMIP-PS pluggable switch",
		OUI: [3]byte{0x00, 0x1a, 0x22}, Conn: Other,
		traits: traits{
			dhcpHost: "HM-CFG-LAN", arpProbes: 3, llcFrames: 2,
			ssdpTargets: []string{"upnp:rootdevice"},
			cloud: []cloudEndpoint{
				{host: "update.homematic.com", https: false, httpPath: "/firmware/version", followUps: 1, followUpLens: []int{128}},
			},
			dupProb: 0.05, swapProb: 0.05,
		},
	}
}

func withings() *Profile {
	return &Profile{
		ID: "Withings", Vendor: "Withings", Model: "Wireless Scale WS-30",
		OUI: [3]byte{0x00, 0x24, 0xe4}, Conn: WiFi,
		traits: traits{
			eapol: true, eapolKeyLen: 117,
			dhcpHost: "WS30", arpProbes: 1, icmpProbe: true,
			dnsNames: []string{"scalews.withings.net"},
			ntp:      true,
			cloud: []cloudEndpoint{
				{host: "scalews.withings.net", https: true, helloLens: []int{215, 223}, followUps: 3, followUpLens: []int{530, 540, 550}},
			},
			dupProb: 0.06, swapProb: 0.1, dynamicPorts: true,
		},
	}
}

func maxGateway() *Profile {
	return &Profile{
		ID: "MAXGateway", Vendor: "eQ-3", Model: "MAX! Cube LAN Gateway",
		OUI: [3]byte{0x00, 0x1a, 0x23}, Conn: Ethernet | Other,
		traits: traits{
			dhcpHost: "MAX-Cube", arpProbes: 4, llcFrames: 3,
			ntp: true,
			cloud: []cloudEndpoint{
				{host: "max.eq-3.de", https: false, httpPath: "/cube/status", followUps: 2, followUpLens: []int{96, 160}},
			},
			dupProb: 0.04, swapProb: 0.05,
		},
	}
}

func hueBridge() *Profile {
	return &Profile{
		ID: "HueBridge", Vendor: "Philips", Model: "Hue Bridge 3241312018",
		OUI: [3]byte{0x00, 0x17, 0x88}, Conn: ZigBee | Ethernet,
		traits: traits{
			dhcpHost: "Philips-hue", arpProbes: 2,
			ipv6Chatter: true,
			mdnsNames:   []string{"_hue._tcp.local", "_hap._tcp.local"},
			ssdpTargets: []string{"ssdp:all", "upnp:rootdevice"},
			dnsNames:    []string{"www.meethue.com", "bridge.meethue.com", "time.meethue.com"},
			ntp:         true,
			cloud: []cloudEndpoint{
				{host: "bridge.meethue.com", https: true, helloLens: []int{256, 264}, followUps: 2, followUpLens: []int{620, 700}},
			},
			dupProb: 0.05, swapProb: 0.15,
		},
	}
}

func hueSwitch() *Profile {
	// ZigBee-only device: observed indirectly as short bursts the
	// bridge forwards when the switch is paired.
	return &Profile{
		ID: "HueSwitch", Vendor: "Philips", Model: "Hue Light Switch PTM 215Z",
		OUI: [3]byte{0x00, 0x17, 0x89}, Conn: ZigBee,
		traits: traits{
			dhcpHost: "hue-switch-pair", arpProbes: 1,
			mdnsNames: []string{"_hue._tcp.local"},
			cloud: []cloudEndpoint{
				{host: "bridge.meethue.com", https: true, helloLens: []int{182}, followUps: 1, followUpLens: []int{210}},
			},
			dupProb: 0.1, swapProb: 0.05,
		},
	}
}

func ednetGateway() *Profile {
	return &Profile{
		ID: "EdnetGateway", Vendor: "Ednet", Model: "ednet.living Starter kit",
		OUI: [3]byte{0xac, 0xcf, 0x23}, Conn: WiFi | Other,
		traits: traits{
			eapol: true, eapolKeyLen: 99,
			dhcpHost: "ednet-living", arpProbes: 2,
			ssdpTargets: []string{"urn:schemas-upnp-org:device:basic:1"},
			dnsNames:    []string{"cloud.ednet-living.com"},
			cloud: []cloudEndpoint{
				{host: "cloud.ednet-living.com", https: false, httpPath: "/api/register", followUps: 1, followUpLens: []int{144}},
			},
			dupProb: 0.12, swapProb: 0.08,
		},
	}
}

func ednetCam() *Profile {
	return &Profile{
		ID: "EdnetCam", Vendor: "Ednet", Model: "Wireless indoor IP camera Cube",
		OUI: [3]byte{0xac, 0xcf, 0x24}, Conn: WiFi | Ethernet,
		traits: traits{
			eapol: true, eapolKeyLen: 99,
			dhcpHost: "ipcam-cube", arpProbes: 3, icmpProbe: true,
			ipv6Chatter: true,
			dnsNames:    []string{"ddns.ednet.net", "p2p.ednet.net"},
			ntp:         true,
			cloud: []cloudEndpoint{
				{host: "p2p.ednet.net", https: false, httpPath: "/check_user.cgi", followUps: 3, followUpLens: []int{400, 820, 1200}},
				{host: "ddns.ednet.net", https: false, httpPath: "/update", followUps: 1, followUpLens: []int{180}},
			},
			dupProb: 0.08, swapProb: 0.1,
		},
	}
}

func edimaxCam() *Profile {
	return &Profile{
		ID: "EdimaxCam", Vendor: "Edimax", Model: "IC-3115W Smart HD WiFi Camera",
		OUI: [3]byte{0x74, 0xda, 0x38}, Conn: WiFi | Ethernet,
		traits: traits{
			eapol: true, eapolKeyLen: 121,
			dhcpHost: "IC-3115W", arpProbes: 2, icmpProbe: true,
			ipv6Chatter: true,
			ssdpTargets: []string{"urn:schemas-upnp-org:device:MediaServer:1"},
			dnsNames:    []string{"www.myedimax.com", "cam.myedimax.com"},
			ntp:         true,
			cloud: []cloudEndpoint{
				{host: "cam.myedimax.com", https: false, httpPath: "/camera/register", followUps: 4, followUpLens: []int{512, 900, 1300, 1460}},
			},
			dupProb: 0.07, swapProb: 0.12,
		},
	}
}

func lightify() *Profile {
	return &Profile{
		ID: "Lightify", Vendor: "Osram", Model: "Lightify Gateway",
		OUI: [3]byte{0x84, 0x18, 0x26}, Conn: WiFi | ZigBee,
		traits: traits{
			eapol: true, eapolKeyLen: 103,
			dhcpHost: "Lightify", arpProbes: 1,
			dnsNames: []string{"lightify.osram.com", "ssl.lightify.com"},
			cloud: []cloudEndpoint{
				{host: "ssl.lightify.com", https: true, helloLens: []int{197, 205}, followUps: 2, followUpLens: []int{260, 330}},
			},
			dupProb: 0.05, swapProb: 0.08, dynamicPorts: true,
		},
	}
}

func wemoBase(id, model string, oui byte, mdns bool) *Profile {
	t := traits{
		eapol: true, eapolKeyLen: 113,
		dhcpHost: id, arpProbes: 2,
		ssdpTargets: []string{"urn:Belkin:device:controllee:1", "upnp:rootdevice"},
		dnsNames:    []string{"api.xbcs.net", "nat.wemo2.com"},
		ntp:         true,
		dupProb:     0.06, swapProb: 0.12,
	}
	return &Profile{
		ID: id, Vendor: "Belkin", Model: model,
		OUI: [3]byte{0xec, 0x1a, oui}, Conn: WiFi,
		traits: t,
	}
}

func wemoInsightSwitch() *Profile {
	p := wemoBase("WeMoInsightSwitch", "WeMo Insight Switch F7C029de", 0x59, false)
	p.traits.cloud = []cloudEndpoint{
		{host: "api.xbcs.net", https: true, helloLens: []int{240, 248}, followUps: 3, followUpLens: []int{350, 420, 490}},
	}
	return p
}

func wemoLink() *Profile {
	p := wemoBase("WeMoLink", "WeMo Link Lighting Bridge F7C031vf", 0x5a, true)
	p.Conn = WiFi | ZigBee
	p.traits.mdnsNames = []string{"_wemo._tcp.local"}
	p.traits.cloud = []cloudEndpoint{
		{host: "api.xbcs.net", https: true, helloLens: []int{240, 248}, followUps: 1, followUpLens: []int{390}},
		{host: "bridge.xbcs.net", https: true, helloLens: []int{188}, followUps: 1, followUpLens: []int{260}},
	}
	return p
}

func wemoSwitch() *Profile {
	p := wemoBase("WeMoSwitch", "WeMo Switch F7C027de", 0x5b, false)
	p.traits.cloud = []cloudEndpoint{
		{host: "api.xbcs.net", https: true, helloLens: []int{232}, followUps: 2, followUpLens: []int{350, 420}},
	}
	p.traits.icmpProbe = true
	return p
}

func dlinkHomeHub() *Profile {
	return &Profile{
		ID: "D-LinkHomeHub", Vendor: "D-Link", Model: "Connected Home Hub DCH-G020",
		OUI: [3]byte{0xc4, 0x12, 0xf5}, Conn: WiFi | Ethernet | ZWave,
		traits: traits{
			eapol: true, eapolKeyLen: 107,
			dhcpHost: "DCH-G020", arpProbes: 3, llcFrames: 1,
			ipv6Chatter: true,
			ssdpTargets: []string{"urn:schemas-upnp-org:device:InternetGatewayDevice:1"},
			mdnsNames:   []string{"_dhnap._tcp.local"},
			dnsNames:    []string{"mydlink.com", "signal.mydlink.com", "time.mydlink.com"},
			ntp:         true,
			cloud: []cloudEndpoint{
				{host: "signal.mydlink.com", https: true, helloLens: []int{269, 277}, followUps: 2, followUpLens: []int{540, 610}},
			},
			dupProb: 0.05, swapProb: 0.1,
		},
	}
}

func dlinkDoorSensor() *Profile {
	// Z-Wave device observed through the hub's forwarded burst.
	return &Profile{
		ID: "D-LinkDoorSensor", Vendor: "D-Link", Model: "Door & Window sensor",
		OUI: [3]byte{0xc4, 0x12, 0xf6}, Conn: ZWave,
		traits: traits{
			dhcpHost: "dch-zwave-pair", arpProbes: 1,
			mdnsNames: []string{"_dhnap._tcp.local"},
			cloud: []cloudEndpoint{
				{host: "signal.mydlink.com", https: true, helloLens: []int{173}, followUps: 1, followUpLens: []int{190}},
			},
			dupProb: 0.1, swapProb: 0.05,
		},
	}
}

func dlinkDayCam() *Profile {
	return &Profile{
		ID: "D-LinkDayCam", Vendor: "D-Link", Model: "WiFi Day Camera DCS-930L",
		OUI: [3]byte{0x28, 0x10, 0x7b}, Conn: WiFi | Ethernet,
		traits: traits{
			eapol: true, eapolKeyLen: 107,
			dhcpHost: "DCS-930L", arpProbes: 2, icmpProbe: true,
			dnsNames: []string{"mydlink.com", "dcp.mydlink.com", "ddns.mydlink.com"},
			ntp:      true,
			cloud: []cloudEndpoint{
				{host: "dcp.mydlink.com", https: false, httpPath: "/dcp/signin", followUps: 4, followUpLens: []int{460, 880, 1240, 1460}},
			},
			dupProb: 0.07, swapProb: 0.1,
		},
	}
}

func dlinkCam() *Profile {
	return &Profile{
		ID: "D-LinkCam", Vendor: "D-Link", Model: "HD IP Camera DCH-935L",
		OUI: [3]byte{0x28, 0x10, 0x7c}, Conn: WiFi,
		traits: traits{
			eapol: true, eapolKeyLen: 107,
			dhcpHost: "DCH-935L", arpProbes: 2,
			mdnsNames: []string{"_dcp._tcp.local"},
			dnsNames:  []string{"mydlink.com", "signal.mydlink.com"},
			ntp:       true,
			cloud: []cloudEndpoint{
				{host: "signal.mydlink.com", https: true, helloLens: []int{269, 277}, followUps: 3, followUpLens: []int{700, 980, 1320}},
			},
			dupProb: 0.07, swapProb: 0.1,
		},
	}
}

// dlinkSmartHomeTraits is the shared firmware behaviour of the DSP-W215
// plug and the DCH-S1xx/S2xx sensor family; the paper found these
// devices have identical hardware and firmware versions.
func dlinkSmartHomeTraits(host string) traits {
	return traits{
		eapol: true, eapolKeyLen: 107,
		dhcpHost: host, arpProbes: 2,
		ssdpTargets: []string{"urn:schemas-upnp-org:device:basic:1"},
		mdnsNames:   []string{"_dhnap._tcp.local"},
		dnsNames:    []string{"mydlink.com", "signal.mydlink.com"},
		cloud: []cloudEndpoint{
			{host: "signal.mydlink.com", https: true, helloLens: []int{205, 213}, followUps: 2, followUpLens: []int{280, 350}},
		},
		dupProb: 0.08, swapProb: 0.15,
	}
}

// dlinkOptionalHNAP is the optional extra HNAP exchange whose
// per-capture probability is the only difference between the sibling
// profiles.
func dlinkOptionalHNAP() stepFunc {
	return stepCloud(cloudEndpoint{
		host: "signal.mydlink.com", https: true,
		helloLens: []int{205}, followUps: 1, followUpLens: []int{280},
	})
}

func dlinkSwitch() *Profile {
	// The DSP-W215 is a different product line than the DCH-S1xx/S2xx
	// sensors but shares most of the mydlink firmware stack; Table III
	// shows it confused with the sensors yet with the highest
	// self-identification of the group. A moderately probable extra
	// DNS lookup reproduces that partial separability.
	t := dlinkSmartHomeTraits("DSP-W215")
	// The plug's TLS stack emits a marginally longer ClientHello about
	// half the time, overlapping the sensors' alphabet at 213 bytes.
	t.cloud[0].helloLens = []int{213, 221}
	t.optional = []optionalStep{
		{prob: 0.55, step: dlinkOptionalHNAP()},
		{prob: 0.5, step: stepDNS("wrpd.dlink.com")},
	}
	return &Profile{
		ID: "D-LinkSwitch", Vendor: "D-Link", Model: "Smart plug DSP-W215",
		OUI: [3]byte{0x28, 0x10, 0x7d}, Conn: WiFi, traits: t,
	}
}

func dlinkWaterSensor() *Profile {
	t := dlinkSmartHomeTraits("DCH-S160")
	t.cloud[0].helloLens = []int{205, 213}
	t.optional = []optionalStep{{prob: 0.35, step: dlinkOptionalHNAP()}}
	return &Profile{
		ID: "D-LinkWaterSensor", Vendor: "D-Link", Model: "Water sensor DCH-S160",
		OUI: [3]byte{0x28, 0x10, 0x7d}, Conn: WiFi, traits: t,
	}
}

func dlinkSiren() *Profile {
	t := dlinkSmartHomeTraits("DCH-S220")
	t.cloud[0].helloLens = []int{197, 205}
	t.optional = []optionalStep{{prob: 0.3, step: dlinkOptionalHNAP()}}
	return &Profile{
		ID: "D-LinkSiren", Vendor: "D-Link", Model: "Siren DCH-S220",
		OUI: [3]byte{0x28, 0x10, 0x7d}, Conn: WiFi, traits: t,
	}
}

func dlinkSensor() *Profile {
	t := dlinkSmartHomeTraits("DCH-S150")
	t.cloud[0].helloLens = []int{205}
	t.optional = []optionalStep{{prob: 0.25, step: dlinkOptionalHNAP()}}
	return &Profile{
		ID: "D-LinkSensor", Vendor: "D-Link", Model: "WiFi Motion sensor DCH-S150",
		OUI: [3]byte{0x28, 0x10, 0x7d}, Conn: WiFi, traits: t,
	}
}

// tplinkPlugTraits is shared by the HS100 and HS110: the paper found the
// two plugs run identical firmware.
func tplinkPlugTraits(host string) traits {
	return traits{
		eapol: true, eapolKeyLen: 101,
		dhcpHost: host, arpProbes: 1,
		dnsNames: []string{"devs.tplinkcloud.com"},
		ntp:      true,
		cloud: []cloudEndpoint{
			{host: "devs.tplinkcloud.com", https: true, helloLens: []int{193, 201}, followUps: 2, followUpLens: []int{240, 310}},
		},
		dupProb: 0.06, swapProb: 0.12, dynamicPorts: true,
	}
}

func tplinkKeepalive() stepFunc {
	return stepCloud(cloudEndpoint{
		host: "devs.tplinkcloud.com", https: true,
		helloLens: []int{193}, followUps: 1, followUpLens: []int{240},
	})
}

func tplinkPlugHS110() *Profile {
	t := tplinkPlugTraits("HS110")
	t.optional = []optionalStep{{prob: 0.65, step: tplinkKeepalive()}}
	return &Profile{
		ID: "TP-LinkPlugHS110", Vendor: "TP-Link", Model: "WiFi Smart plug HS110",
		OUI: [3]byte{0x50, 0xc7, 0xbf}, Conn: WiFi, traits: t,
	}
}

func tplinkPlugHS100() *Profile {
	t := tplinkPlugTraits("HS100")
	t.optional = []optionalStep{{prob: 0.35, step: tplinkKeepalive()}}
	return &Profile{
		ID: "TP-LinkPlugHS100", Vendor: "TP-Link", Model: "WiFi Smart plug HS100",
		OUI: [3]byte{0x50, 0xc7, 0xbf}, Conn: WiFi, traits: t,
	}
}

// edimaxPlugTraits is shared by the SP-1101W and SP-2101W plugs.
func edimaxPlugTraits(host string) traits {
	return traits{
		eapol: true, eapolKeyLen: 121,
		dhcpHost: host, arpProbes: 2,
		ssdpTargets: []string{"urn:schemas-upnp-org:device:basic:1"},
		dnsNames:    []string{"www.myedimax.com"},
		cloud: []cloudEndpoint{
			{host: "plug.myedimax.com", https: false, httpPath: "/smartplug/register", followUps: 2, followUpLens: []int{220, 290}},
		},
		dupProb: 0.09, swapProb: 0.12,
	}
}

func edimaxRecheck() stepFunc {
	return stepCloud(cloudEndpoint{
		host: "plug.myedimax.com", https: false,
		httpPath: "/smartplug/status", followUps: 1, followUpLens: []int{220},
	})
}

func edimaxPlug1101W() *Profile {
	t := edimaxPlugTraits("SP1101W")
	t.optional = []optionalStep{{prob: 0.7, step: edimaxRecheck()}}
	return &Profile{
		ID: "EdimaxPlug1101W", Vendor: "Edimax", Model: "SP-1101W Smart Plug Switch",
		OUI: [3]byte{0x74, 0xda, 0x39}, Conn: WiFi, traits: t,
	}
}

func edimaxPlug2101W() *Profile {
	t := edimaxPlugTraits("SP2101W")
	t.optional = []optionalStep{{prob: 0.3, step: edimaxRecheck()}}
	return &Profile{
		ID: "EdimaxPlug2101W", Vendor: "Edimax", Model: "SP-2101W Smart Plug Switch",
		OUI: [3]byte{0x74, 0xda, 0x39}, Conn: WiFi, traits: t,
	}
}

// smarterTraits is shared by the SmarterCoffee machine and the iKettle
// 2.0; both use the same Smarter WiFi module and app protocol, and the
// module reports the same DHCP hostname for both appliances — which is
// why the paper found them mutually confusable until a firmware update
// changed one of them.
func smarterTraits() traits {
	return traits{
		eapol: true, eapolKeyLen: 95,
		dhcpHost: "Smarter-Device", arpProbes: 1, icmpProbe: true,
		dnsNames: []string{"smarter.am"},
		cloud: []cloudEndpoint{
			{host: "cloud.smarter.am", https: false, httpPath: "/appliance/hello", followUps: 1, followUpLens: []int{96}},
		},
		dupProb: 0.14, swapProb: 0.08,
	}
}

func smarterBeacon() stepFunc {
	return stepCloud(cloudEndpoint{
		host: "cloud.smarter.am", https: false,
		httpPath: "/appliance/beacon", followUps: 1, followUpLens: []int{96},
	})
}

func smarterCoffee() *Profile {
	t := smarterTraits()
	t.optional = []optionalStep{{prob: 0.42, step: smarterBeacon()}}
	return &Profile{
		ID: "SmarterCoffee", Vendor: "Smarter", Model: "SmarterCoffee SMC10-EU",
		OUI: [3]byte{0x5c, 0xcf, 0x7f}, Conn: WiFi, traits: t,
	}
}

func iKettle2() *Profile {
	t := smarterTraits()
	t.optional = []optionalStep{{prob: 0.58, step: smarterBeacon()}}
	return &Profile{
		ID: "iKettle2", Vendor: "Smarter", Model: "iKettle 2.0 SMK20-EU",
		OUI: [3]byte{0x5c, 0xcf, 0x7f}, Conn: WiFi, traits: t,
	}
}

// WithFirmwareUpdate returns a copy of the profile modelling the same
// device after a firmware update (Sect. VIII-B): the paper observed
// that updates change the setup fingerprint enough to be
// distinguishable from the previous version — the TLS stack emits
// different ClientHello sizes and an extra version-check exchange
// appears. The returned profile's ID carries a "+fw2" suffix.
func (p *Profile) WithFirmwareUpdate() *Profile {
	cp := *p
	cp.ID = p.ID + "+fw2"
	cp.Model = p.Model + " (firmware 2.x)"
	t := p.traits
	// The updated WiFi stack negotiates a slightly different EAPoL key
	// payload, so the change is visible even for devices whose first
	// twelve unique packets fill up before any cloud exchange.
	if t.eapol {
		t.eapolKeyLen += 4
	}
	// Updated TLS/HTTP stacks shift the message-size alphabets.
	t.cloud = append([]cloudEndpoint(nil), p.traits.cloud...)
	for i := range t.cloud {
		ep := t.cloud[i]
		if len(ep.helloLens) > 0 {
			lens := make([]int, len(ep.helloLens))
			for j, l := range ep.helloLens {
				lens[j] = l + 36
			}
			ep.helloLens = lens
		}
		if ep.followUps > 0 {
			lens := make([]int, len(ep.followUpLens))
			for j, l := range ep.followUpLens {
				lens[j] = l + 24
			}
			ep.followUpLens = lens
		}
		t.cloud[i] = ep
	}
	// The updated firmware phones home for its update channel.
	t.optional = append(append([]optionalStep(nil), p.traits.optional...),
		optionalStep{prob: 0.9, step: stepCloud(cloudEndpoint{
			host: "fwupdate.vendor.example", https: true,
			helloLens: []int{164}, followUps: 1, followUpLens: []int{88},
		})})
	cp.traits = t
	cp.steps = t.fixedSteps()
	return &cp
}
