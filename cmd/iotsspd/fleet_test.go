package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
)

// modelRecorder collects every bank a fleet session applied.
type modelRecorder struct {
	mu   sync.Mutex
	shas []string
}

func (r *modelRecorder) apply(sha string, model []byte) error {
	r.mu.Lock()
	r.shas = append(r.shas, sha)
	r.mu.Unlock()
	return nil
}

func (r *modelRecorder) last() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.shas) == 0 {
		return ""
	}
	return r.shas[len(r.shas)-1]
}

func waitUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerFleetCanaryRollout drives the daemon-level control plane:
// iotsspd runs with -fleet-listen and -learn, two gateways join over
// the binary protocol (adopting the serving bank on connect), one
// streams unknown MAXGateway fingerprints that cluster into a promoted
// type, the promotion becomes a canary rollout — pushed to the canary
// gateway first — and once the canary's streamed counters hold, the
// bank auto-promotes to the whole fleet.
func TestServerFleetCanaryRollout(t *testing.T) {
	// A compact 5-type bank that rejects MAXGateway fingerprints.
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

	const (
		httpAddr  = "127.0.0.1:8496"
		fleetAddr = "127.0.0.1:8497"
	)
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", httpAddr, "-model", model,
			"-learn", "-learn-k", "3",
			"-fleet-listen", fleetAddr, "-state-dir", t.TempDir(),
			"-canary-fraction", "0.4", "-canary-min-samples", "3", "-canary-max-unknown", "0.2",
		}, &out)
	}()
	waitUntil(t, "server up", 10*time.Second, func() bool {
		resp, err := http.Get("http://" + httpAddr + "/v1/types")
		if err != nil {
			return false
		}
		_ = resp.Body.Close()
		return true
	})

	var rec1, rec2 modelRecorder
	link := func(id string, rec *modelRecorder) *fleet.Session {
		sess, err := fleet.NewSession(fleet.SessionConfig{Client: fleet.ClientConfig{
			Addr: fleetAddr, GatewayID: id, ApplyModel: rec.apply,
		}})
		if err != nil {
			t.Fatalf("link %s: %v", id, err)
		}
		return sess
	}
	g1 := link("g1", &rec1)
	defer g1.Close()
	g2 := link("g2", &rec2)
	defer g2.Close()

	// On connect both gateways converge onto the serving bank.
	waitUntil(t, "initial model adoption", 10*time.Second, func() bool {
		return rec1.last() != "" && rec2.last() != ""
	})
	base := rec1.last()
	if rec2.last() != base {
		t.Fatalf("gateways adopted different banks: %.12s vs %.12s", base, rec2.last())
	}

	// g1 streams distinct unknown fingerprints up the fleet link; the
	// service assesses them, the learner clusters, promotes a type, and
	// the promotion starts a canary rollout (ceil(0.4×2) = 1 canary:
	// g1, the first sorted ID).
	for _, fp := range distinctProbes(t, "MAXGateway", 4) {
		if err := g1.Observe(fp); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if err := g1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	waitUntil(t, "candidate pushed to the canary", 15*time.Second, func() bool {
		return rec1.last() != base
	})
	candidate := rec1.last()
	if rec2.last() != base {
		t.Fatalf("non-canary g2 received the candidate mid-canary (%.12s)", rec2.last())
	}

	// The canary holds: clean assessments past min-samples, streamed as
	// counters, judge the rollout and promote it fleet-wide.
	for i := 0; i < 5; i++ {
		g1.RecordAssessment(false)
	}
	if err := g1.Flush(); err != nil {
		t.Fatalf("Flush counters: %v", err)
	}
	waitUntil(t, "fleet-wide promotion", 15*time.Second, func() bool {
		return rec2.last() == candidate
	})

	g1.Close()
	g2.Close()
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
	s := out.String()
	for _, want := range []string{
		"fleet control plane listening",
		"canarying",
		"promoted fleet-wide",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("server output missing %q:\n%s", want, s)
		}
	}
}
