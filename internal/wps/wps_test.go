package wps

import (
	"errors"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

var (
	macA = packet.MAC{0x02, 1, 1, 1, 1, 1}
	macB = packet.MAC{0x02, 2, 2, 2, 2, 2}
)

func TestEnrollAndAuthenticate(t *testing.T) {
	k := NewKeystore()
	cred, err := k.Enroll(macA)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if len(cred.PSK) != PSKBytes*2 {
		t.Errorf("PSK length = %d, want %d hex digits", len(cred.PSK), PSKBytes*2)
	}
	if cred.Generation != 1 {
		t.Errorf("Generation = %d", cred.Generation)
	}
	if !k.Authenticate(macA, cred.PSK) {
		t.Error("own PSK rejected")
	}
	if k.Authenticate(macB, cred.PSK) {
		t.Error("device-specific PSK accepted for another device")
	}
	if k.Authenticate(macA, "wrong") {
		t.Error("wrong PSK accepted")
	}
	got, ok := k.Lookup(macA)
	if !ok || got.PSK != cred.PSK {
		t.Error("Lookup mismatch")
	}
	if _, ok := k.Lookup(macB); ok {
		t.Error("unknown device found")
	}
}

func TestPSKsAreUnique(t *testing.T) {
	k := NewKeystore()
	a, err := k.Enroll(macA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Enroll(macB)
	if err != nil {
		t.Fatal(err)
	}
	if a.PSK == b.PSK {
		t.Error("two devices received the same PSK")
	}
}

func TestReEnrollIncrementsGeneration(t *testing.T) {
	k := NewKeystore()
	first, err := k.Enroll(macA)
	if err != nil {
		t.Fatal(err)
	}
	second, err := k.Enroll(macA)
	if err != nil {
		t.Fatal(err)
	}
	if second.Generation != 2 {
		t.Errorf("Generation = %d, want 2", second.Generation)
	}
	if first.PSK == second.PSK {
		t.Error("re-key did not change the PSK")
	}
	// The old key is dead.
	if k.Authenticate(macA, first.PSK) {
		t.Error("old PSK still authenticates")
	}
}

func TestRevoke(t *testing.T) {
	k := NewKeystore()
	cred, err := k.Enroll(macA)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Revoke(macA) {
		t.Fatal("Revoke returned false")
	}
	if k.Revoke(macA) {
		t.Error("double revoke succeeded")
	}
	if k.Authenticate(macA, cred.PSK) {
		t.Error("revoked PSK still authenticates")
	}
	if k.Len() != 0 {
		t.Errorf("Len = %d", k.Len())
	}
}

func TestGenerateFailure(t *testing.T) {
	k := NewKeystore()
	k.randRead = func([]byte) (int, error) { return 0, errors.New("entropy exhausted") }
	if _, err := k.Enroll(macA); err == nil {
		t.Error("entropy failure not surfaced")
	}
}

func TestWithClock(t *testing.T) {
	fixed := time.Unix(12345, 0)
	k := NewKeystore()
	k.now = func() time.Time { return fixed }
	cred, err := k.Enroll(macA)
	if err != nil {
		t.Fatal(err)
	}
	if !cred.IssuedAt.Equal(fixed) {
		t.Errorf("IssuedAt = %v", cred.IssuedAt)
	}
}

func TestConcurrentKeystore(t *testing.T) {
	k := NewKeystore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mac := packet.MAC{0x02, byte(w), 0, 0, 0, 0}
			for i := 0; i < 50; i++ {
				if _, err := k.Enroll(mac); err != nil {
					t.Errorf("Enroll: %v", err)
					return
				}
				k.Lookup(mac)
				k.Authenticate(mac, "x")
			}
		}(w)
	}
	wg.Wait()
	if k.Len() != 8 {
		t.Errorf("Len = %d", k.Len())
	}
}
