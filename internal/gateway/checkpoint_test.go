package gateway

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/store"
)

// everyNthFails fails every nth assessment of its inner assessor.
type everyNthFails struct {
	inner iotssp.Assessor
	n     uint32
	calls atomic.Uint32
}

func (a *everyNthFails) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	if a.calls.Add(1)%a.n == 0 {
		return iotssp.Assessment{}, errors.New("injected assessment failure")
	}
	return a.inner.Assess(fp)
}

func testMAC(i int) packet.MAC { return packet.MAC{0x02, 0xAB, 0, byte(i >> 8), byte(i), 1} }

// joinDevice takes one device through first packet and forced setup
// end: assessed, or quarantined when its assessment fails.
func joinDevice(t *testing.T, g *Gateway, i int) {
	ts := time.Unix(int64(3000+i), 0)
	if _, err := g.HandlePacket(ts, arpPacket(testMAC(i))); err != nil {
		t.Error(err)
	}
	if err := g.FinishSetup(testMAC(i), ts.Add(time.Second)); err != nil {
		t.Error(err)
	}
}

func openStore(t *testing.T, dir string) (*store.Store, *store.Recovery) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// checkRecoversLive recovers a fresh gateway from dir — a closed state
// directory, or a copy of a live one — and requires the clean recovery
// of exactly the live gateway's devices and rule table.
func checkRecoversLive(t *testing.T, dir string, live *Gateway) {
	t.Helper()
	st, rec := openStore(t, dir)
	defer st.Close()
	if rec.Degraded {
		t.Fatalf("recovery degraded: %v", rec.Warnings)
	}
	g := newGatewayWithAssessor(live.assessor, Config{})
	if _, err := g.Recover(rec, time.Unix(9000, 0)); err != nil {
		t.Fatal(err)
	}
	if got, want := len(g.Devices()), len(live.Devices()); got != want {
		t.Errorf("recovered %d devices, live gateway has %d", got, want)
	}
	if got, want := g.QuarantineLen(), live.QuarantineLen(); got != want {
		t.Errorf("recovered %d parked fingerprints, live gateway has %d", got, want)
	}
	if got, want := g.Switch().Controller().Rules().Digest(), live.Switch().Controller().Rules().Digest(); got != want {
		t.Errorf("recovered rule table digest %016x, live %016x", got, want)
	}
}

// TestCheckpointBlocksNobody holds a snapshot open in the middle of its
// file and requires everything a checkpoint used to stall to complete
// meanwhile: a routine and a durable append, a removal, a join, and a
// frame of a device in every shard.
func TestCheckpointBlocksNobody(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	g := newGatewayWithAssessor(trainService(t), Config{Shards: 8, Store: st})
	perShard := make(map[*shard]int) // a device of each shard
	for i := 0; len(perShard) < g.Shards() || i < 64; i++ {
		joinDevice(t, g, i)
		perShard[g.shardOf(testMAC(i))] = i
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	g.checkpointHook = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- g.Checkpoint() }()
	<-entered // one shard's rows written, the rest to come

	unblocked := make(chan struct{})
	go func() {
		defer close(unblocked)
		if _, err := st.Append(store.Event{Kind: store.EvUnknownObserved, Cluster: "c-0001"}); err != nil {
			t.Errorf("routine append: %v", err)
		}
		if _, err := st.Append(store.Event{Kind: store.EvRolloutPromoted, Model: "aa11"}); err != nil {
			t.Errorf("durable append: %v", err)
		}
		g.RemoveDevice(testMAC(perShard[g.shards[0]]))
		delete(perShard, g.shards[0])
		joinDevice(t, g, 1000)
		for _, i := range perShard {
			if _, err := g.HandlePacket(time.Unix(8000, 0), arpPacket(testMAC(i))); err != nil {
				t.Errorf("HandlePacket: %v", err)
			}
		}
	}()
	select {
	case <-unblocked:
	case <-time.After(10 * time.Second):
		t.Fatal("appends, a removal, a join or forwarding waited for the snapshot being written")
	}
	close(release)
	if err := <-checkpointed; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	checkRecoversLive(t, dir, g)
}

// TestCheckpointConcurrentWithChurn runs checkpoints beside joins,
// removals, quarantine drains and foreign appends (under -race in make
// verify): whatever interleaving the snapshot's shard-by-shard copy
// meets, snapshot + journal recover the live gateway's final state.
func TestCheckpointConcurrentWithChurn(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	g := newGatewayWithAssessor(&everyNthFails{inner: trainService(t), n: 5}, Config{Shards: 8, Store: st})
	const resident, joining = 100, 200
	// Half the residents leave, the quarantined among them too: a
	// removal racing the retry drain's promotion of the same device
	// leaves it gone (TestVerdictForDepartedDeviceIsDropped).
	var leaving []packet.MAC
	for i := 0; i < resident; i++ {
		joinDevice(t, g, i)
		if i%2 == 0 {
			leaving = append(leaving, testMAC(i))
		}
	}

	var churn, background sync.WaitGroup
	stop := make(chan struct{})
	churn.Add(2)
	go func() {
		defer churn.Done()
		for i := resident; i < resident+joining; i++ {
			joinDevice(t, g, i)
		}
	}()
	go func() {
		defer churn.Done()
		for _, mac := range leaving {
			g.RemoveDevice(mac)
		}
	}()
	loop := func(step func()) {
		background.Add(1)
		go func() {
			defer background.Done()
			for {
				select {
				case <-stop:
					return
				default:
					step()
				}
			}
		}()
	}
	loop(func() {
		if err := g.Checkpoint(); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	loop(func() { g.RetryQuarantined(time.Unix(7000, 0)) })
	loop(func() {
		if _, err := st.Append(store.Event{Kind: store.EvUnknownObserved, Cluster: "c-0001"}); err != nil {
			t.Errorf("Append: %v", err)
		}
	})
	churn.Wait()
	close(stop)
	background.Wait()

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	checkRecoversLive(t, dir, g)
}

// TestCheckpointWorkerBoundsJournal: a tick snapshots what was
// journaled, an idle tick does nothing, and a gateway killed after more
// churn recovers from at most two segments to exactly its live state.
func TestCheckpointWorkerBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	defer st.Close()
	g := newGatewayWithAssessor(&everyNthFails{inner: trainService(t), n: 7}, Config{Store: st})
	for i := 0; i < 50; i++ {
		joinDevice(t, g, i)
	}
	w := &CheckpointWorker{}
	w.tick(g)
	w.tick(g) // nothing journaled since
	if w.taken != 1 {
		t.Fatalf("two ticks over one burst of joins took %d snapshots, want 1", w.taken)
	}
	for i := 50; i < 60; i++ {
		joinDevice(t, g, i)
		g.RemoveDevice(testMAC(i - 50))
	}

	// kill -9: what has reached the disk is all there is.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	image := t.TempDir()
	writeState(t, image, readState(t, dir, "*.*")...)
	if segments, _ := filepath.Glob(filepath.Join(image, "journal-*.wal")); len(segments) > 2 {
		t.Errorf("%d journal segments on disk after a checkpoint, want at most 2: %v", len(segments), segments)
	}
	checkRecoversLive(t, image, g)
}
