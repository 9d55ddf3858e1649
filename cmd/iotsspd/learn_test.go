package main

import (
	"bytes"
	"net/http"
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
	"iotsentinel/internal/store"
)

// distinctProbes returns n canonically-distinct fingerprints of one
// device type (the learner dedupes exact repeats).
func distinctProbes(t *testing.T, typ string, n int) []fingerprint.Fingerprint {
	t.Helper()
	p, err := devices.ProfileByID(typ)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[fingerprint.Key]bool)
	var out []fingerprint.Fingerprint
	for seed := int64(1); len(out) < n && seed < 200; seed++ {
		for _, c := range devices.GenerateCaptures(p, 4, seed) {
			fp := fingerprint.FromPackets(c.Packets)
			if seen[fp.CanonicalKey()] {
				continue
			}
			seen[fp.CanonicalKey()] = true
			out = append(out, fp)
			if len(out) == n {
				break
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d distinct %s probes found, want %d", len(out), typ, n)
	}
	return out
}

// TestServerOnlineLearning runs the standalone service with -learn and
// drives the unknown-device loop over HTTP: repeated unknown
// assessments cluster server-side, a type is trained and hot-swapped,
// and later assessments of the same device type come back known —
// while the server keeps answering throughout.
func TestServerOnlineLearning(t *testing.T) {
	raw := devices.GenerateDataset(12, 9)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	id, err := core.Train(ds, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "m.json")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := id.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	const addr = "127.0.0.1:8494"
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-listen", addr, "-model", model,
			"-learn", "-learn-k", "3"}, &out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/types")
		if err == nil {
			_ = resp.Body.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	client := &iotssp.Client{BaseURL: "http://" + addr, Timeout: 10 * time.Second}
	probes := distinctProbes(t, "MAXGateway", 5)
	for i, fp := range probes[:4] {
		a, err := client.Assess(fp)
		if err != nil {
			t.Fatalf("assess %d: %v", i, err)
		}
		if i == 0 && a.Known {
			t.Fatalf("first MAXGateway probe already known (%q): bad test premise", a.Type)
		}
	}
	// Promotion runs in the background; the service answers while it
	// trains. Poll until the learned type serves.
	var last iotssp.Assessment
	learned := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		last, err = client.Assess(probes[4])
		if err != nil {
			t.Fatalf("assess learned probe: %v", err)
		}
		if last.Known && strings.HasPrefix(string(last.Type), "learned-") {
			learned = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !learned {
		t.Errorf("MAXGateway never learned; last assessment %+v\nserver output:\n%s", last, out.String())
	}

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
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "online device-type learning enabled") {
		t.Errorf("missing learn banner:\n%s", out.String())
	}
}

// TestServerRestartKeepsLearnedTypes: a service that learned a type
// with -state-dir restarts serving the bank it learned it into — the
// learned type answers from the first request, the learner trains
// nothing again, and with -fleet-listen the fleet's current version is
// the bank the service served before the restart, not its cold bank.
func TestServerRestartKeepsLearnedTypes(t *testing.T) {
	raw := devices.GenerateDataset(12, 9)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	id, err := core.Train(ds, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "m.json")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := id.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	probes := distinctProbes(t, "MAXGateway", 5)

	for name, fleetAddr := range map[string]string{"http": "", "fleet": "127.0.0.1:8491"} {
		t.Run(name, func(t *testing.T) {
			const addr = "127.0.0.1:8490"
			stateDir := t.TempDir()
			args := []string{"-listen", addr, "-model", model, "-learn", "-learn-k", "3", "-state-dir", stateDir}
			if fleetAddr != "" {
				args = append(args, "-fleet-listen", fleetAddr)
			}
			client := &iotssp.Client{BaseURL: "http://" + addr, Timeout: 10 * time.Second}
			learned := func() bool {
				a, err := client.Assess(probes[4])
				if err != nil {
					t.Fatalf("assess learned probe: %v", err)
				}
				return a.Known && strings.HasPrefix(string(a.Type), "learned-")
			}

			first := serveUntil(t, addr, args, func() {
				for i, fp := range probes[:4] {
					if _, err := client.Assess(fp); err != nil {
						t.Fatalf("assess %d: %v", i, err)
					}
				}
				waitUntil(t, "MAXGateway learned", 10*time.Second, learned)
			})
			st, _, err := store.Open(stateDir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, serving, err := st.Models().Load()
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("no serving bank stored after learning: %v\n%s", err, first)
			}

			var pushed modelRecorder
			second := serveUntil(t, addr, args, func() {
				if !learned() {
					t.Error("the restarted service does not serve the learned type")
				}
				if fleetAddr == "" {
					return
				}
				// A gateway that offers no bank is pushed the fleet's current.
				sess, err := fleet.NewSession(fleet.SessionConfig{Client: fleet.ClientConfig{
					Addr: fleetAddr, GatewayID: "g1", ApplyModel: pushed.apply,
				}})
				if err != nil {
					t.Fatalf("link: %v", err)
				}
				defer sess.Close()
				waitUntil(t, "the fleet's current bank", 10*time.Second, func() bool { return pushed.last() != "" })
			})
			if !strings.Contains(second, "loaded model bank from disk") {
				t.Errorf("restart output missing %q:\n%s", "loaded model bank from disk", second)
			}
			if strings.Contains(second, "learn: promoted cluster") {
				t.Errorf("the restart trained a type again:\n%s", second)
			}
			if fleetAddr != "" && pushed.last() != serving {
				t.Errorf("fleet current after the restart is %.12s, the service served %.12s before it:\n%s",
					pushed.last(), serving, second)
			}
		})
	}
}

// TestServerRestartKeepsRolledBackTypeOut: a type the fleet rolled
// back stays out across a restart. The service learns MAXGateway with a
// gateway connected, so the promotion canaries on it; the canary
// reports every assessment unknown, the rollout rolls back and the
// service reverts its own bank. Restarted with the same flags, the
// service trains nothing, does not serve the rejected type, and a
// gateway that connects afterwards is pushed the baseline bank, never
// the rejected one.
func TestServerRestartKeepsRolledBackTypeOut(t *testing.T) {
	raw := devices.GenerateDataset(12, 9)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"} {
		ds[core.TypeID(typ)] = raw[typ]
	}
	id, err := core.Train(ds, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "m.json")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := id.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	probes := distinctProbes(t, "MAXGateway", 5)

	const (
		addr      = "127.0.0.1:8488"
		fleetAddr = "127.0.0.1:8489"
	)
	args := []string{"-listen", addr, "-model", model, "-learn", "-learn-k", "3",
		"-state-dir", t.TempDir(), "-fleet-listen", fleetAddr, "-canary-min-samples", "3"}
	client := &iotssp.Client{BaseURL: "http://" + addr, Timeout: 10 * time.Second}
	learned := func() bool {
		a, err := client.Assess(probes[4])
		if err != nil {
			t.Fatalf("assess learned probe: %v", err)
		}
		return a.Known && strings.HasPrefix(string(a.Type), "learned-")
	}
	link := func(id string, rec *modelRecorder) *fleet.Session {
		sess, err := fleet.NewSession(fleet.SessionConfig{Client: fleet.ClientConfig{
			Addr: fleetAddr, GatewayID: id, ApplyModel: rec.apply,
		}})
		if err != nil {
			t.Fatalf("link %s: %v", id, err)
		}
		return sess
	}

	var canary modelRecorder
	var baseline, rejected string
	first := serveUntil(t, addr, args, func() {
		g1 := link("g1", &canary)
		defer g1.Close()
		waitUntil(t, "g1 adopts the serving bank", 10*time.Second, func() bool { return canary.last() != "" })
		baseline = canary.last()
		for i, fp := range probes[:4] {
			if _, err := client.Assess(fp); err != nil {
				t.Fatalf("assess %d: %v", i, err)
			}
		}
		waitUntil(t, "the candidate pushed to the canary", 10*time.Second, func() bool { return canary.last() != baseline })
		rejected = canary.last()
		for i := 0; i < 5; i++ {
			g1.RecordAssessment(true)
		}
		if err := g1.Flush(); err != nil {
			t.Fatalf("Flush counters: %v", err)
		}
		waitUntil(t, "the canary rolled back", 10*time.Second, func() bool { return canary.last() == baseline })
		waitUntil(t, "the service reverts its bank", 10*time.Second, func() bool { return !learned() })
	})
	if !strings.Contains(first, "central bank reverted") {
		t.Fatalf("first run did not revert its bank:\n%s", first)
	}

	var late modelRecorder
	second := serveUntil(t, addr, args, func() {
		// Long enough for a retrain to land and, with no gateway
		// connected, to promote on the empty fleet.
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
			if learned() {
				t.Error("the restarted service serves the rolled-back type")
				break
			}
		}
		g2 := link("g2", &late)
		defer g2.Close()
		waitUntil(t, "the fleet's current bank", 10*time.Second, func() bool { return late.last() != "" })
	})
	if strings.Contains(second, "learn: promoted cluster") {
		t.Errorf("the restart trained the rolled-back type again:\n%s", second)
	}
	late.mu.Lock()
	defer late.mu.Unlock()
	for _, sha := range late.shas {
		if sha != baseline {
			t.Errorf("a gateway connecting after the restart was pushed %.12s, want only the baseline %.12s (rejected %.12s):\n%s",
				sha, baseline, rejected, second)
		}
	}
}

// serveUntil runs the daemon with args until it answers on addr, calls
// drive, then interrupts it and returns its output.
func serveUntil(t *testing.T, addr string, args []string, drive func()) string {
	t.Helper()
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() { errCh <- run(args, &out) }()
	waitUntil(t, "server up", 10*time.Second, func() bool {
		resp, err := http.Get("http://" + addr + "/v1/types")
		if err != nil {
			return false
		}
		_ = resp.Body.Close()
		return true
	})
	drive()
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
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	return out.String()
}
