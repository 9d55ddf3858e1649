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
	"iotsentinel/internal/iotssp"
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
