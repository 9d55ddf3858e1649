package iotsentinel_test

import (
	"bytes"
	"fmt"

	"iotsentinel"
)

// ExampleTrainIdentifier trains the pipeline on the reference dataset
// and identifies a fresh capture of a known device-type.
func ExampleTrainIdentifier() {
	ds := iotsentinel.ReferenceDataset(10, 1)
	id, err := iotsentinel.TrainIdentifier(ds, iotsentinel.WithSeed(42))
	if err != nil {
		fmt.Println("train:", err)
		return
	}
	caps, err := iotsentinel.GenerateSetupTraffic("HueBridge", 1, 7)
	if err != nil {
		fmt.Println("traffic:", err)
		return
	}
	fp := iotsentinel.FingerprintPackets(caps[0].Packets)
	fmt.Println(id.Identify(fp).Type)
	// Output: HueBridge
}

// ExampleNewSentinel assembles the full system and onboards a device
// with a known vulnerability: it is identified and confined to the
// restricted isolation level.
func ExampleNewSentinel() {
	ds := iotsentinel.ReferenceDataset(10, 1)
	s, err := iotsentinel.NewSentinel(ds, iotsentinel.WithSeed(7))
	if err != nil {
		fmt.Println("sentinel:", err)
		return
	}
	caps, err := iotsentinel.GenerateSetupTraffic("EdnetCam", 1, 99)
	if err != nil {
		fmt.Println("traffic:", err)
		return
	}
	c := caps[0]
	for i, pk := range c.Packets {
		if _, err := s.Gateway.HandlePacket(c.Times[i], pk); err != nil {
			fmt.Println("handle:", err)
			return
		}
	}
	if err := s.Gateway.FinishSetup(c.MAC, c.Times[len(c.Times)-1]); err != nil {
		fmt.Println("finish:", err)
		return
	}
	info, _ := s.Gateway.Device(c.MAC)
	fmt.Printf("%s -> %s\n", info.Type, info.Level)
	// Output: EdnetCam -> restricted
}

// ExampleFingerprintPCAP round-trips a capture through the pcap format
// and fingerprints only the device's own frames.
func ExampleFingerprintPCAP() {
	caps, err := iotsentinel.GenerateSetupTraffic("Withings", 1, 5)
	if err != nil {
		fmt.Println("traffic:", err)
		return
	}
	var buf bytes.Buffer
	if err := caps[0].WritePCAP(&buf); err != nil {
		fmt.Println("write:", err)
		return
	}
	fp, err := iotsentinel.FingerprintPCAP(&buf, caps[0].MAC.String())
	if err != nil {
		fmt.Println("read:", err)
		return
	}
	fmt.Println(len(fp.F) > 0, fp.UniqueCount > 0)
	// Output: true true
}

// ExampleNewKeystore shows WPS credential management: a device-specific
// PSK is issued on enrollment, admits only its own device, and stops
// working once revoked.
func ExampleNewKeystore() {
	ks := iotsentinel.NewKeystore()
	mac := iotsentinel.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	cred, err := ks.Enroll(mac)
	if err != nil {
		fmt.Println("enroll:", err)
		return
	}
	fmt.Println(len(cred.PSK), ks.Authenticate(mac, cred.PSK))
	ks.Revoke(mac)
	fmt.Println(ks.Authenticate(mac, cred.PSK))
	// Output:
	// 64 true
	// false
}
