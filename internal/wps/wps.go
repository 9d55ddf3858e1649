// Package wps models the credential-management substrate of
// Sect. III-A: the Security Gateway issues each wireless device a
// device-specific WPA2 pre-shared key through WiFi Protected Setup, so
// a compromised device cannot impersonate its neighbours or decrypt
// their traffic.
package wps

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"iotsentinel/internal/packet"
)

// PSKBytes is the length of generated pre-shared keys (WPA2 permits
// 8..63 ASCII characters or 64 hex digits; we issue 32 random bytes
// rendered as 64 hex digits).
const PSKBytes = 32

// Credential is one issued device-specific PSK.
type Credential struct {
	MAC      packet.MAC
	PSK      string
	IssuedAt time.Time
	// Generation increments on every re-key of the same device.
	Generation int
}

// Keystore manages per-device PSKs. All methods are safe for concurrent
// use.
type Keystore struct {
	mu sync.Mutex
	// creds maps device MAC to its current credential.
	creds    map[packet.MAC]Credential
	now      func() time.Time
	randRead func([]byte) (int, error)
}

// NewKeystore returns an empty store.
func NewKeystore() *Keystore {
	return &Keystore{
		creds:    make(map[packet.MAC]Credential),
		now:      time.Now,
		randRead: rand.Read,
	}
}

// Enroll issues a fresh device-specific PSK for a device joining via
// WPS. Re-enrolling an already-known device re-keys it.
func (k *Keystore) Enroll(mac packet.MAC) (Credential, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	psk, err := k.generate()
	if err != nil {
		return Credential{}, err
	}
	cred := Credential{
		MAC:        mac,
		PSK:        psk,
		IssuedAt:   k.now(),
		Generation: k.creds[mac].Generation + 1,
	}
	k.creds[mac] = cred
	return cred, nil
}

// Lookup returns the current credential for a device.
func (k *Keystore) Lookup(mac packet.MAC) (Credential, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.creds[mac]
	return c, ok
}

// Revoke removes a device's credential (the device left the network or
// was manually removed per Sect. III-C3).
func (k *Keystore) Revoke(mac packet.MAC) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.creds[mac]; !ok {
		return false
	}
	delete(k.creds, mac)
	return true
}

// Authenticate checks a presented PSK: it must match the device's own
// credential.
func (k *Keystore) Authenticate(mac packet.MAC, psk string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.creds[mac]
	return ok && c.PSK == psk
}

// Len returns the number of enrolled devices.
func (k *Keystore) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.creds)
}

func (k *Keystore) generate() (string, error) {
	buf := make([]byte, PSKBytes)
	if _, err := k.randRead(buf); err != nil {
		return "", fmt.Errorf("wps: generate psk: %w", err)
	}
	return hex.EncodeToString(buf), nil
}
