package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/node"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/store"
	"iotsentinel/internal/testutil"
	"iotsentinel/internal/vulndb"
)

// writeReplayDir writes a few single-device captures as pcaps.
func writeReplayDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, typ := range []string{"Aria", "HueBridge", "EdnetCam"} {
		p, err := devices.ProfileByID(typ)
		if err != nil {
			t.Fatal(err)
		}
		c := devices.GenerateCaptures(p, 1, int64(300+i))[0]
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.pcap", typ)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WritePCAP(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestGatewaydReplayOneshotInProcess(t *testing.T) {
	dir := writeReplayDir(t)
	var out bytes.Buffer
	err := run([]string{"-replay", dir, "-oneshot", "-captures", "10"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		`assessed`, `"EdnetCam" -> restricted`, `"HueBridge" -> trusted`,
		"3 devices assessed", "USER ALERT",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestGatewaydRemoteSSP(t *testing.T) {
	// Stand up a real IoTSSP HTTP server, then point gatewayd at it —
	// the Fig 1 deployment split end to end.
	raw := devices.GenerateDataset(10, 5)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "Withings"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	id, err := core.Train(ds, core.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	srv := httptest.NewServer(iotssp.Handler(svc))
	defer srv.Close()

	dir := writeReplayDir(t)
	var out bytes.Buffer
	if err := run([]string{"-replay", dir, "-oneshot", "-ssp", srv.URL}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "using remote IoT Security Service") {
		t.Errorf("output missing remote banner:\n%s", s)
	}
	if !strings.Contains(s, `"EdnetCam" -> restricted`) {
		t.Errorf("remote assessment missing:\n%s", s)
	}
}

func TestGatewaydDegradedReplayQuarantines(t *testing.T) {
	// The IoTSSP answers 503 to everything: replay must still complete,
	// quarantining every device fail-closed instead of crashing.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "service down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	dir := writeReplayDir(t)
	var out bytes.Buffer
	err := run([]string{"-replay", dir, "-oneshot", "-ssp", srv.URL,
		"-assess-timeout", "2s", "-assess-retries", "0"}, &out)
	if err != nil {
		t.Fatalf("run with down IoTSSP must degrade, not fail: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "quarantined") {
		t.Errorf("output missing quarantine notices:\n%s", s)
	}
	if !strings.Contains(s, "0 devices assessed, 3 quarantined") {
		t.Errorf("replay summary wrong:\n%s", s)
	}
	if strings.Contains(s, "assessed ") && strings.Contains(s, "->") {
		t.Errorf("devices assessed despite down service:\n%s", s)
	}
}

// TestGatewaydWarmBootFromStateDir is the ISSUE's acceptance scenario:
// a first boot trains the bank, persists it, journals the replayed
// devices, and checkpoints on exit; the second boot loads the model
// from disk (no training) and recovers every device with its state —
// no replay, no re-capture.
func TestGatewaydWarmBootFromStateDir(t *testing.T) {
	replayDir := writeReplayDir(t)
	stateDir := t.TempDir()

	var first bytes.Buffer
	if err := run([]string{"-replay", replayDir, "-oneshot", "-captures", "10",
		"-state-dir", stateDir}, &first); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	s := first.String()
	for _, want := range []string{
		"training in-process IoT Security Service",
		"persisted model bank",
		"3 devices assessed",
		"state: checkpointed, clean shutdown",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("first boot output missing %q:\n%s", want, s)
		}
	}

	var second bytes.Buffer
	if err := run([]string{"-oneshot", "-captures", "10",
		"-state-dir", stateDir}, &second); err != nil {
		t.Fatalf("second boot: %v", err)
	}
	s = second.String()
	if strings.Contains(s, "training in-process") {
		t.Errorf("warm boot retrained instead of loading from disk:\n%s", s)
	}
	for _, want := range []string{
		"loaded model bank from disk",
		"recovered 3 devices (3 assessed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("second boot output missing %q:\n%s", want, s)
		}
	}

	// The persisted bank carries no runtime configuration, and at boot
	// there is no serving bank for Service.Install to take it from: the
	// warm path itself must attach the identification cache. It reports
	// the SHA-256 the model store recorded for the bank.
	st, _, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	var boot bytes.Buffer
	id, sha, err := node.BootBank(st.Models(), nil, func() (*core.Identifier, error) {
		return node.TrainBank(10, 1)
	}, log.New(&boot, "", 0))
	if err != nil || !strings.Contains(boot.String(), "loaded model bank from disk") {
		t.Fatalf("BootBank did not take the warm path: %v\n%s", err, boot.String())
	}
	if id.Cache() == nil {
		t.Fatal("warm boot: no identification cache attached")
	}
	if _, stored, err := st.Models().Load(); err != nil || sha != stored {
		t.Fatalf("warm boot reported sha %.12s, the store has %.12s (%v)", sha, stored, err)
	}
	aria, err := devices.ProfileByID("Aria")
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint.FromPackets(devices.GenerateCaptures(aria, 1, 41)[0].Packets)
	id.Identify(fp)
	id.Identify(fp)
	if hits, _ := id.Cache().HeadStats(); hits == 0 {
		t.Error("repeat identification after warm boot missed the cache")
	}
}

// TestGatewaydWarmBootOffersItsBankToTheFleet: a warm-booted gateway
// names the bank it loaded in its fleet hello, so a fleet whose current
// version is that bank pushes nothing — no second decode, hot-swap and
// fsync of a bank the gateway already serves. A bank the fleet pushed is
// stored as pushed, so after a restart the gateway names exactly it and
// the fleet again pushes nothing.
func TestGatewaydWarmBootOffersItsBankToTheFleet(t *testing.T) {
	stateDir := t.TempDir()
	if err := run([]string{"-oneshot", "-captures", "4", "-state-dir", stateDir}, io.Discard); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	st, _, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, stored, err := st.Models().Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := bank.Save(&model); err != nil {
		t.Fatal(err)
	}

	// The fleet serves the stored bank. A short lease makes the gateway
	// heartbeat every 100 ms.
	reg := obs.NewRegistry()
	fm := fleet.NewMetrics(reg)
	registry := fleet.NewRegistry(300*time.Millisecond, fm)
	ctrl, err := fleet.NewController(fleet.ControllerConfig{Registry: registry, Metrics: fm})
	if err != nil {
		t.Fatal(err)
	}
	if sha, err := ctrl.SetCurrent(model.Bytes()); err != nil || sha != stored {
		t.Fatalf("fleet current %.12s, stored bank %.12s (%v)", sha, stored, err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Registry:   registry,
		Controller: ctrl,
		Ingest:     func([]fingerprint.Fingerprint) int { return 0 },
		Metrics:    fm,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	// serve runs the gateway on the fleet until it has heartbeated and
	// the fleet holds acks models applied in all, then interrupts it. It
	// returns the models the fleet pushed meanwhile, and the output.
	serve := func(acks float64) (float64, string) {
		t.Helper()
		const api = "127.0.0.1:8498"
		var out bytes.Buffer
		errCh := make(chan error, 1)
		before := reg.Snapshot()
		go func() {
			errCh <- run([]string{"-api", api, "-state-dir", stateDir,
				"-fleet", ln.Addr().String(), "-fleet-id", "gw-warm"}, &out)
		}()
		// The server decides on a push before it reads the gateway's first
		// heartbeat; an answered API request means the daemon's interrupt
		// handler is installed.
		deadline := time.Now().Add(20 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the gateway's API and first heartbeat")
			}
			resp, err := http.Get("http://" + api + "/v1/devices")
			if err == nil {
				_ = resp.Body.Close()
				snap := reg.Snapshot()
				if snap.Value("fleet_frames_total", "type", "heartbeat") > before.Value("fleet_frames_total", "type", "heartbeat") &&
					snap.Value("fleet_model_acks_total", "result", "ok") >= acks {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		pushes := reg.Snapshot().Value("fleet_model_pushes_total") - before.Value("fleet_model_pushes_total")

		p, err := os.FindProcess(os.Getpid())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("gatewayd did not shut down")
		}
		return pushes, out.String()
	}

	pushes, s := serve(0)
	if pushes != 0 {
		t.Errorf("fleet pushed %v models to a gateway already serving the current one", pushes)
	}
	if strings.Contains(s, "hot-swapped pushed model") || !strings.Contains(s, "loaded model bank from disk") {
		t.Errorf("gateway output:\n%s", s)
	}

	// The fleet moves on to a bank the gateway has never served: it is
	// pushed once, and a restart offers it back.
	raw := devices.GenerateDataset(4, 9)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	next, err := core.Train(ds, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	model.Reset()
	if err := next.Save(&model); err != nil {
		t.Fatal(err)
	}
	pushed, err := ctrl.SetCurrent(model.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pushes, s = serve(1); pushes != 1 || !strings.Contains(s, "hot-swapped pushed model "+pushed[:12]) {
		t.Fatalf("fleet pushed %v models to a gateway on the old bank:\n%s", pushes, s)
	}
	if pushes, s = serve(1); pushes != 0 || !strings.Contains(s, "sha256 "+pushed[:8]) {
		t.Errorf("restarted gateway was pushed %v models; it serves:\n%s", pushes, s)
	}
	if st, _, err = store.Open(stateDir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if _, sha, err := st.Models().Load(); err != nil || sha != pushed {
		t.Errorf("stored serving bank %.12s (%v), the fleet pushed %.12s", sha, err, pushed)
	}
}

// TestGatewaydRunLeavesNoGoroutines: run stops everything it starts —
// the assess-queue drains, and with a state dir the SIGHUP reloader —
// whether or not there is a store to shut down.
func TestGatewaydRunLeavesNoGoroutines(t *testing.T) {
	replayDir := writeReplayDir(t)
	for name, extra := range map[string][]string{
		"in-memory": nil,
		"state-dir": {"-state-dir", t.TempDir()},
	} {
		t.Run(name, func(t *testing.T) {
			defer testutil.AssertNoGoroutineLeaks(t)()
			var out bytes.Buffer
			args := append([]string{"-replay", replayDir, "-oneshot", "-captures", "10"}, extra...)
			if err := run(args, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.Contains(out.String(), "3 devices assessed") {
				t.Errorf("replay summary wrong:\n%s", out.String())
			}
		})
	}
}

func TestGatewaydBadReplayDir(t *testing.T) {
	if err := run([]string{"-replay", "/nonexistent-dir-xyz", "-oneshot", "-captures", "4"}, &bytes.Buffer{}); err == nil {
		t.Error("bad replay dir must fail")
	}
}

// TestGatewaydTruncatedReplayFileFails cuts one capture off mid-record:
// the replay must fail, and its error must name the damaged file.
func TestGatewaydTruncatedReplayFileFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "service down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	dir := writeReplayDir(t)
	bad := filepath.Join(dir, "HueBridge.pcap")
	fi, err := os.Stat(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(bad, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-replay", dir, "-oneshot", "-ssp", srv.URL, "-assess-retries", "0"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("replay of a truncated capture must fail")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Fatalf("error %q does not name %s", err, bad)
	}
}

// writeDistinctCaptures writes n captures of one device type whose
// fingerprints are canonically distinct (the learner dedupes exact
// repeats, so only distinct observations grow a cluster).
func writeDistinctCaptures(t *testing.T, dir, typ string, n int) {
	t.Helper()
	p, err := devices.ProfileByID(typ)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[fingerprint.Key]bool)
	written := 0
	for seed := int64(1); written < n && seed < 200; seed++ {
		for _, c := range devices.GenerateCaptures(p, 4, seed) {
			fp := fingerprint.FromPackets(c.Packets)
			if seen[fp.CanonicalKey()] {
				continue
			}
			seen[fp.CanonicalKey()] = true
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%02d.pcap", typ, written)))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WritePCAP(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if written++; written == n {
				break
			}
		}
	}
	if written < n {
		t.Fatalf("only %d distinct %s captures found, want %d", written, typ, n)
	}
}

// TestGatewaydLearnEndToEnd drives the whole unknown-device loop
// through the daemon: a bank that does not know MAXGateway sees four
// distinct MAXGateway devices, clusters them, trains a new type, swaps
// it into the serving bank and persists it — so the next boot loads a
// bank that identifies MAXGateway devices instead of quarantining them.
func TestGatewaydLearnEndToEnd(t *testing.T) {
	stateDir := t.TempDir()
	st, _, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Five types trained well enough that a foreign fingerprint is
	// rejected (a thin bank happily misattributes instead).
	raw := devices.GenerateDataset(12, 9)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	bank, err := core.Train(ds, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Models().Save(bank); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	replayDir := t.TempDir()
	writeDistinctCaptures(t, replayDir, "MAXGateway", 4)

	var first bytes.Buffer
	if err := run([]string{"-replay", replayDir, "-oneshot",
		"-state-dir", stateDir, "-learn", "-learn-k", "3"}, &first); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	s := first.String()
	for _, want := range []string{
		"online device-type learning enabled",
		"loaded model bank from disk",
		"proposing type",
		`promoted cluster learned-0001 as type "learned-0001"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("first boot output missing %q:\n%s", want, s)
		}
	}

	// Second boot: the persisted bank carries the learned type and a
	// fresh MAXGateway device is identified, not quarantined.
	secondReplay := t.TempDir()
	writeDistinctCaptures(t, secondReplay, "MAXGateway", 5)
	var second bytes.Buffer
	if err := run([]string{"-replay", secondReplay, "-oneshot",
		"-state-dir", stateDir}, &second); err != nil {
		t.Fatalf("second boot: %v", err)
	}
	s = second.String()
	if strings.Contains(s, "training in-process") {
		t.Errorf("second boot retrained instead of loading the learned bank:\n%s", s)
	}
	if !strings.Contains(s, "6 types") {
		t.Errorf("second boot did not load the 6-type bank:\n%s", s)
	}
	if !strings.Contains(s, `as "learned-0001"`) {
		t.Errorf("learned type did not identify a MAXGateway device:\n%s", s)
	}
}

// TestLearnRequiresInProcessService: online learning trains on the
// local bank; with a remote IoTSSP there is nothing local to train.
func TestLearnRequiresInProcessService(t *testing.T) {
	err := run([]string{"-oneshot", "-learn", "-ssp", "http://127.0.0.1:1"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-learn requires the in-process service") {
		t.Errorf("-learn with -ssp must fail with a pointed error, got %v", err)
	}
}

// TestFleetRequiresInProcessService: the fleet link hot-swaps pushed
// banks into a local service; with -ssp there is no local bank.
func TestFleetRequiresInProcessService(t *testing.T) {
	err := run([]string{"-oneshot", "-fleet", "127.0.0.1:1", "-ssp", "http://127.0.0.1:1"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-fleet requires the in-process service") {
		t.Errorf("-fleet with -ssp must fail with a pointed error, got %v", err)
	}
}

// TestGatewaydRemoteLearnEndToEnd drives the remote unknown-device
// loop: gatewayd runs as a pure HTTP client against a learning
// service (wired exactly as `iotsspd -learn` wires it — PromoteType
// closure, HasType, unknown sink off the assess path). Unknown
// MAXGateway devices reported by the remote gateway cluster
// service-side, a type is trained and hot-swapped into the serving
// bank, and the gateway's next assessments of that device type come
// back known instead of quarantined.
func TestGatewaydRemoteLearnEndToEnd(t *testing.T) {
	raw := devices.GenerateDataset(12, 9)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	bank, err := core.Train(ds, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc := iotssp.New(bank, vulndb.NewDefault())
	learner, err := learn.New(learn.Config{
		K:       3,
		Promote: svc.PromoteType,
		Known:   svc.HasType,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	svc.SetUnknownSink(learner.Observe)
	srv := httptest.NewServer(iotssp.Handler(svc))
	defer srv.Close()

	// First boot: the remote gateway replays unknown devices; every
	// assessment 200s with Known=false, so the devices quarantine
	// locally while their fingerprints cluster service-side.
	firstReplay := t.TempDir()
	writeDistinctCaptures(t, firstReplay, "MAXGateway", 4)
	var first bytes.Buffer
	if err := run([]string{"-replay", firstReplay, "-oneshot", "-ssp", srv.URL}, &first); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if s := first.String(); !strings.Contains(s, "quarantined") {
		t.Errorf("unknown devices were not quarantined on first contact:\n%s", s)
	}

	// Promotion trains in the background on the service; wait until the
	// learned type serves.
	learner.Wait()
	found := false
	for _, typ := range svc.Types() {
		if strings.HasPrefix(string(typ), "learned-") {
			found = true
		}
	}
	if !found {
		t.Fatalf("service never promoted a learned type; types = %v", svc.Types())
	}

	// Second boot: fresh MAXGateway devices assess against the updated
	// service and come back known — served to the remote gateway
	// without it restarting anything locally.
	secondReplay := t.TempDir()
	writeDistinctCaptures(t, secondReplay, "MAXGateway", 3)
	var second bytes.Buffer
	if err := run([]string{"-replay", secondReplay, "-oneshot", "-ssp", srv.URL}, &second); err != nil {
		t.Fatalf("second boot: %v", err)
	}
	s := second.String()
	if !strings.Contains(s, `as "learned-0001"`) {
		t.Errorf("remote gateway not served the learned type:\n%s", s)
	}
	if !strings.Contains(s, "0 quarantined") {
		t.Errorf("devices still quarantined after the service learned the type:\n%s", s)
	}
}
