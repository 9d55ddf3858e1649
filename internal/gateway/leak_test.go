package gateway

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/store"
	"iotsentinel/internal/testutil"
)

// TestGatewayShutdownLeaksNothing pins the managed-goroutine contract
// of the full daemon assembly: a gateway with async assessment drains,
// an expiry sweeper, a quarantine retry worker, a checkpoint worker and
// a journaling store (with its committer) must leave zero goroutines
// behind after Shutdown/Close.
func TestGatewayShutdownLeaksNothing(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(t, Config{
		IdleGap:     5 * time.Second,
		Shards:      8,
		AssessQueue: 64,
		Store:       st,
	})
	expiry := NewExpiryWorker(gw, 10*time.Millisecond)
	retry := NewRetryWorker(gw, 10*time.Millisecond)
	checkpoint := NewCheckpointWorker(gw, 10*time.Millisecond)

	// Push real traffic through so drain goroutines, assessments, and
	// journal appends are all live when teardown starts.
	for _, c := range devices.GenerateCaptures(devices.Catalog()[0], 3, 5) {
		for i, pk := range c.Packets {
			if _, err := gw.HandlePacket(c.Times[i], pk); err != nil {
				t.Fatal(err)
			}
		}
	}
	gw.WaitAssessIdle()

	expiry.Shutdown()
	retry.Shutdown()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint worker wrote no snapshot in 5 s")
		}
	}
	if n := checkpoint.Shutdown(); n < 1 {
		t.Errorf("checkpoint worker reports %d snapshots beside the one on disk", n)
	}
	gw.Close()
	if err := st.Close(); err != nil {
		t.Errorf("store close: %v", err)
	}
}
