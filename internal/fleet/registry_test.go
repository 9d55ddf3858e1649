package fleet

import (
	"reflect"
	"testing"
	"time"
)

func TestRegistryLeaseLifecycle(t *testing.T) {
	r := NewRegistry(30*time.Second, nil)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	r.register("g2", nil, t0)
	r.register("g1", nil, t0)
	r.register("g3", nil, t0)
	if got := r.IDs(); !reflect.DeepEqual(got, []string{"g1", "g2", "g3"}) {
		t.Fatalf("IDs = %v, want sorted g1..g3", got)
	}

	// A touch inside the lease keeps the member alive past the
	// original expiry.
	r.touch("g1", t0.Add(20*time.Second))
	expired := r.ExpireLeases(t0.Add(40 * time.Second))
	if !reflect.DeepEqual(expired, []string{"g2", "g3"}) {
		t.Fatalf("expired = %v, want [g2 g3]", expired)
	}
	if got := r.IDs(); !reflect.DeepEqual(got, []string{"g1"}) {
		t.Fatalf("IDs after expiry = %v, want [g1]", got)
	}

	// Expiry is by lease, not by connection: a disconnected member
	// survives until its lease lapses.
	r.disconnect("g1", nil)
	if got := r.ExpireLeases(t0.Add(45 * time.Second)); got != nil {
		t.Fatalf("expired = %v, want none (lease still live)", got)
	}
	if got := r.ExpireLeases(t0.Add(51 * time.Second)); !reflect.DeepEqual(got, []string{"g1"}) {
		t.Fatalf("expired = %v, want [g1]", got)
	}
}

func TestRegistryCountersAndModel(t *testing.T) {
	r := NewRegistry(0, nil)
	if r.Lease() != DefaultLease {
		t.Fatalf("Lease = %v, want default %v", r.Lease(), DefaultLease)
	}
	now := time.Now()
	r.register("g1", nil, now)
	r.setCounters("g1", 10, 3)
	r.setModel("g1", "abc")
	a, u, ok := r.counters("g1")
	if !ok || a != 10 || u != 3 {
		t.Fatalf("counters = %d,%d,%v", a, u, ok)
	}
	if _, _, ok := r.counters("ghost"); ok {
		t.Fatal("counters for unregistered gateway reported ok")
	}
	gws := r.Gateways()
	if len(gws) != 1 || gws[0].ID != "g1" || gws[0].ModelSHA != "abc" ||
		gws[0].Assessed != 10 || gws[0].Unknown != 3 || gws[0].Connected {
		t.Fatalf("Gateways = %+v", gws)
	}

	// Within one connection the counters only grow: a lower reading was
	// overtaken on the gateway and is dropped. A new registration may
	// start lower once — the gateway restarted.
	r.setCounters("g1", 8, 2)
	if a, u, _ := r.counters("g1"); a != 10 || u != 3 {
		t.Fatalf("a stale reading moved the counters back to %d,%d", a, u)
	}
	r.register("g1", nil, now)
	r.setCounters("g1", 2, 1)
	r.setCounters("g1", 1, 1)
	if a, u, _ := r.counters("g1"); a != 2 || u != 1 {
		t.Fatalf("counters after a re-registration = %d,%d, want the restarted gateway's 2,1", a, u)
	}
}

func TestRegistryPushRequiresConnection(t *testing.T) {
	r := NewRegistry(0, nil)
	if err := r.push("ghost", "sha", nil); err == nil {
		t.Fatal("push to unregistered gateway succeeded")
	}
	r.register("g1", nil, time.Now())
	if err := r.push("g1", "sha", nil); err == nil {
		t.Fatal("push to disconnected gateway succeeded")
	}
}
