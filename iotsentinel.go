// Package iotsentinel is a reproduction of "IoT Sentinel: Automated
// Device-Type Identification for Security Enforcement in IoT"
// (Miettinen et al., ICDCS 2017).
//
// It identifies the device-type (make + model + firmware version) of an
// IoT device from the network traffic it emits during its setup phase,
// assesses the type against a vulnerability database, and enforces an
// isolation level (trusted / restricted / strict) through an SDN-style
// Security Gateway.
//
// The package is a facade over the implementation packages under
// internal/: fingerprinting (23 features per packet, Table I), the
// one-classifier-per-type Random Forest bank with edit-distance
// discrimination (Sect. IV), the IoT Security Service (Sect. III-B) and
// the enforcement plane (Sect. V).
//
// Quick start:
//
//	ds := iotsentinel.ReferenceDataset(20, 1)
//	id, err := iotsentinel.TrainIdentifier(ds, iotsentinel.WithSeed(42))
//	if err != nil { ... }
//	res := id.Identify(fp)
//	fmt.Println(res.Type)
package iotsentinel

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
	"iotsentinel/internal/wps"
)

// Core identification types, re-exported from the implementation.
type (
	// DeviceType names a device-type (make + model + firmware).
	DeviceType = core.TypeID
	// Fingerprint is one device observation: the packet-sequence
	// fingerprint F and its fixed 276-dimensional form F′.
	Fingerprint = fingerprint.Fingerprint
	// Identifier is a trained identification pipeline.
	Identifier = core.Identifier
	// IdentifyResult reports one identification.
	IdentifyResult = core.Result
	// Packet is a decoded network frame.
	Packet = packet.Packet
	// MAC is an IEEE 802 hardware address.
	MAC = packet.MAC
	// IsolationLevel is the enforcement class of a device.
	IsolationLevel = sdn.IsolationLevel
	// Dataset is a labelled fingerprint collection.
	Dataset = map[DeviceType][]Fingerprint
)

// Unknown is the identification result for devices no classifier
// accepts.
const Unknown = core.Unknown

// Isolation levels (Fig 3 of the paper).
const (
	Strict     = sdn.Strict
	Restricted = sdn.Restricted
	Trusted    = sdn.Trusted
)

// Device lifecycle states, as reported by DeviceInfo.State. A device is
// monitored during its setup phase, assessed once the security service
// answers, and quarantined (isolated fail-closed at Strict) when the
// service is unreachable — Gateway.RetryQuarantined or a
// gateway.RetryWorker promotes it once the service recovers.
const (
	StateMonitoring  = gateway.StateMonitoring
	StateAssessed    = gateway.StateAssessed
	StateQuarantined = gateway.StateQuarantined
)

// Option configures training and the assembled Sentinel.
type Option interface {
	apply(*options)
}

type options struct {
	coreCfg core.Config
	gwCfg   gateway.Config
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithSeed makes training deterministic.
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.coreCfg.Seed = seed })
}

// WithForestTrees sets the per-type Random Forest size (default 25).
func WithForestTrees(n int) Option {
	return optionFunc(func(o *options) { o.coreCfg.Forest.Trees = n })
}

// WithNegativeRatio sets the negative-to-positive training sample ratio
// (paper: 10).
func WithNegativeRatio(r int) Option {
	return optionFunc(func(o *options) { o.coreCfg.NegativeRatio = r })
}

// WithReferenceFingerprints sets how many per-type fingerprints the
// edit-distance discrimination compares against (paper: 5).
func WithReferenceFingerprints(n int) Option {
	return optionFunc(func(o *options) { o.coreCfg.RefFingerprints = n })
}

// WithAcceptThreshold sets the minimum classifier probability for a
// type match (default 0.5).
func WithAcceptThreshold(t float64) Option {
	return optionFunc(func(o *options) { o.coreCfg.AcceptThreshold = t })
}

// TrainIdentifier builds the one-classifier-per-type identification
// pipeline from a labelled dataset.
func TrainIdentifier(ds Dataset, opts ...Option) (*Identifier, error) {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	id, err := core.Train(ds, o.coreCfg)
	if err != nil {
		return nil, fmt.Errorf("iotsentinel: %w", err)
	}
	return id, nil
}

// ReferenceDataset synthesizes the paper's evaluation dataset: n setup
// captures for each of the 27 device-types of Table II (n=20 gives the
// 540-fingerprint dataset of Sect. VI-B).
func ReferenceDataset(n int, seed int64) Dataset {
	raw := devices.GenerateDataset(n, seed)
	out := make(Dataset, len(raw))
	for k, v := range raw {
		out[DeviceType(k)] = v
	}
	return out
}

// DeviceTypes lists the 27 reference device-types of Table II.
func DeviceTypes() []DeviceType {
	cat := devices.Catalog()
	out := make([]DeviceType, len(cat))
	for i, p := range cat {
		out[i] = DeviceType(p.ID)
	}
	return out
}

// FingerprintPackets builds a fingerprint from an ordered packet
// sequence (one device's setup traffic).
func FingerprintPackets(pkts []*Packet) Fingerprint {
	return fingerprint.FromPackets(pkts)
}

// FingerprintPCAP builds a fingerprint from a pcap stream, keeping only
// frames sent by deviceMAC (formatted aa:bb:cc:dd:ee:ff; empty keeps
// all frames).
func FingerprintPCAP(r io.Reader, deviceMAC string) (Fingerprint, error) {
	fp, _, err := devices.ReadPCAP(r, deviceMAC)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("iotsentinel: %w", err)
	}
	return fp, nil
}

// DecodeFrame parses one raw Ethernet frame.
func DecodeFrame(frame []byte) (*Packet, error) {
	return packet.Decode(frame)
}

// Sentinel is the fully assembled system: a Security Gateway enforcing
// isolation levels decided by an in-process IoT Security Service.
type Sentinel struct {
	// Gateway is the data-path component; feed it packets with
	// Gateway.HandlePacket.
	Gateway *gateway.Gateway
	// Service is the IoT Security Service (identification +
	// vulnerability assessment).
	Service *iotssp.Service
	// Controller owns the enforcement-rule cache.
	Controller *sdn.Controller
}

// NewSentinel assembles a Sentinel from a training dataset: it trains
// the identifier, wires the vulnerability database, and connects a
// switch + controller + gateway stack.
func NewSentinel(ds Dataset, opts ...Option) (*Sentinel, error) {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	id, err := core.Train(ds, o.coreCfg)
	if err != nil {
		return nil, fmt.Errorf("iotsentinel: %w", err)
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, sdnLocalPrefix())
	sw := sdn.NewSwitch(ctrl, 0)
	gw := gateway.New(svc, sw, o.gwCfg)
	return &Sentinel{Gateway: gw, Service: svc, Controller: ctrl}, nil
}

func sdnLocalPrefix() netip.Prefix {
	return netip.MustParsePrefix("192.168.0.0/16")
}

// SetupCapture is one synthesized device setup observation: packets
// with capture timestamps and the device MAC.
type SetupCapture = devices.Capture

// GenerateSetupTraffic synthesizes n setup captures for one of the 27
// reference device-types, e.g. to replay against a Sentinel gateway.
func GenerateSetupTraffic(typ DeviceType, n int, seed int64) ([]SetupCapture, error) {
	p, err := devices.ProfileByID(string(typ))
	if err != nil {
		return nil, fmt.Errorf("iotsentinel: %w", err)
	}
	return devices.GenerateCaptures(p, n, seed), nil
}

// StandbyDataset synthesizes steady-state (non-setup) traffic
// fingerprints for every reference device-type, supporting the legacy-
// installation scenario of Sect. VIII-A where devices are identified
// after they already joined the network.
func StandbyDataset(n int, seed int64) Dataset {
	raw := devices.GenerateStandbyDataset(n, seed)
	out := make(Dataset, len(raw))
	for k, v := range raw {
		out[DeviceType(k)] = v
	}
	return out
}

// GenerateStandbyTraffic synthesizes n standby captures (heartbeats,
// periodic cloud exchanges) for one reference device-type.
func GenerateStandbyTraffic(typ DeviceType, n int, seed int64) ([]SetupCapture, error) {
	p, err := devices.ProfileByID(string(typ))
	if err != nil {
		return nil, fmt.Errorf("iotsentinel: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]SetupCapture, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.GenerateStandby(rng, 3))
	}
	return out, nil
}

// DeviceInfo is the gateway's view of one device.
type DeviceInfo = gateway.DeviceInfo

// Notification is a user-facing alert about an unfixably vulnerable
// device (Sect. III-C3).
type Notification = gateway.Notification

// WithAssessedHook installs a callback invoked after each device
// assessment on the assembled Sentinel's gateway.
func WithAssessedHook(fn func(DeviceInfo)) Option {
	return optionFunc(func(o *options) { o.gwCfg.OnAssessed = fn })
}

// WithNotifyHook installs the user-notification callback for devices
// whose critical vulnerabilities have no firmware fix.
func WithNotifyHook(fn func(Notification)) Option {
	return optionFunc(func(o *options) { o.gwCfg.OnNotify = fn })
}

// SaveIdentifier serializes a trained identifier to w (versioned JSON);
// LoadIdentifier restores it with bit-identical predictions.
func SaveIdentifier(id *Identifier, w io.Writer) error {
	if err := id.Save(w); err != nil {
		return fmt.Errorf("iotsentinel: %w", err)
	}
	return nil
}

// LoadIdentifier restores an identifier written by SaveIdentifier.
func LoadIdentifier(r io.Reader) (*Identifier, error) {
	id, err := core.LoadIdentifier(r)
	if err != nil {
		return nil, fmt.Errorf("iotsentinel: %w", err)
	}
	return id, nil
}

// Keystore manages device-specific WPA2 pre-shared keys (Sect. III-A).
type Keystore = wps.Keystore

// NewKeystore returns an empty WPS credential store.
func NewKeystore() *Keystore {
	return wps.NewKeystore()
}

// WithKeystore enables WPS credential management on the assembled
// Sentinel: new devices are enrolled with device-specific PSKs and
// removed devices are revoked.
func WithKeystore(ks *Keystore) Option {
	return optionFunc(func(o *options) { o.gwCfg.Keystore = ks })
}
