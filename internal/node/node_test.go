package node

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"log"
	"runtime"
	"strings"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/vulndb"
)

// TestGatewayConfigIsTheMeasuredOne pins the daemon's and the soak's
// gateway to the pipeline bench/topology.go builds: DefaultShards
// shards and its assessQueueDepth of 256 per shard. bench/ is a module
// of its own and cannot be imported here, hence the literal.
func TestGatewayConfigIsTheMeasuredOne(t *testing.T) {
	if gateway.DefaultAssessQueue != 256 || gateway.DefaultShards != 8 {
		t.Fatalf("gateway defaults are %d shards, queue %d; bench/topology.go measures 8 and 256",
			gateway.DefaultShards, gateway.DefaultAssessQueue)
	}
	health := obs.NewHealth()
	log := log.New(io.Discard, "", 0)
	st, err := OpenState(t.TempDir(), nil, health, log)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Store.Close() }()
	quarantined := false
	cfg := GatewayConfig(gateway.Config{
		Shards:        1, // not the caller's to choose
		OnQuarantined: func(gateway.DeviceInfo, error) { quarantined = true },
	}, st, nil, log)
	if cfg.Shards != gateway.DefaultShards || cfg.AssessQueue != gateway.DefaultAssessQueue {
		t.Errorf("config has %d shards, queue %d", cfg.Shards, cfg.AssessQueue)
	}
	if cfg.Store != st.Store || cfg.LearnState != nil {
		t.Error("store not wired, or learner state without a learner")
	}
	if cfg.OnQuarantined(gateway.DeviceInfo{}, nil); !quarantined {
		t.Error("the caller's callback was dropped")
	}

	// A journaling failure is what the store probe exists to report.
	if ready, _ := health.Check(); !ready {
		t.Fatal("fresh state dir is not ready")
	}
	cfg.OnStoreError(errors.New("disk full"))
	ready, subs := health.Check()
	if ready || len(subs) != 1 || !strings.Contains(subs[0].Detail, "disk full") {
		t.Errorf("after a journal error: ready %v, %+v", ready, subs)
	}
}

// TestTrainBankLearnerAndInstall walks a service through the assembly:
// the reference bank minus held-out types, a learner wired to the
// service's unknown fingerprints and to the state dir, and a bank
// arriving as bytes, which serves and is stored as it came.
func TestTrainBankLearnerAndInstall(t *testing.T) {
	id, err := TrainBank(4, 1, "Aria", "HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	if id.NumTypes() != 25 || id.Workers() != runtime.GOMAXPROCS(0) || id.Cache() == nil {
		t.Fatalf("bank: %d types, %d workers, cache %v", id.NumTypes(), id.Workers(), id.Cache() != nil)
	}
	for _, typ := range id.Types() {
		if typ == "Aria" || typ == "HueBridge" {
			t.Fatalf("held-out type %q was trained", typ)
		}
	}
	svc := iotssp.New(id, vulndb.NewDefault())

	var out bytes.Buffer
	log := log.New(&out, "", 0)
	st, err := OpenState(t.TempDir(), nil, obs.NewHealth(), log)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Store.Close() }()
	l, err := NewLearner(svc, st, learn.Config{K: 3}, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Whoever asks the service, a fingerprint it finds unknown reaches
	// the learner.
	p, err := devices.ProfileByID("Aria")
	if err != nil {
		t.Fatal(err)
	}
	aria := fingerprint.FromPackets(devices.GenerateCaptures(p, 1, 5)[0].Packets)
	if a, _ := svc.Assess(aria); a.Known {
		t.Fatalf("held-out Aria assessed as %q: bad test premise", a.Type)
	}
	l.Wait()
	if cs := l.Clusters(); len(cs) != 1 || cs[0].Members != 1 {
		t.Errorf("learner clusters after one unknown assessment: %+v", cs)
	}

	full, err := TrainBank(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := full.Save(&model); err != nil {
		t.Fatal(err)
	}
	if err := InstallModel(svc, st.Models(), model.Bytes(), log); err != nil {
		t.Fatal(err)
	}
	if now := svc.Identifier(); now.NumTypes() != 27 || now.Workers() != runtime.GOMAXPROCS(0) || now.Cache() == nil {
		t.Errorf("installed bank: %d types, %d workers, cache %v; want 27 with the serving bank's runtime",
			now.NumTypes(), now.Workers(), now.Cache() != nil)
	}
	sum := sha256.Sum256(model.Bytes())
	want := hex.EncodeToString(sum[:])
	if _, sha, err := st.Models().Load(); err != nil || sha != want {
		t.Errorf("stored serving bank %.12s (%v), want the installed bytes' %.12s", sha, err, want)
	}
	if err := InstallModel(svc, st.Models(), model.Bytes()[:model.Len()/2], log); err == nil {
		t.Error("truncated model installed")
	}
	if _, sha, err := st.Models().Load(); err != nil || sha != want {
		t.Errorf("a rejected install moved the serving bank to %.12s (%v)", sha, err)
	}
	for _, want := range []string{"learning enabled (k=3)", "learn: recovered 0 clusters"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("log missing %q:\n%s", want, out.String())
		}
	}
}

// TestBootBank: a cold boot builds the bank from its cold source and
// stores it; the next boot loads that bank and never calls the cold
// source; a rejected stored bank falls back to the cold source. Every
// path binds the serving defaults.
func TestBootBank(t *testing.T) {
	var out bytes.Buffer
	log := log.New(&out, "", 0)
	st, err := OpenState(t.TempDir(), nil, obs.NewHealth(), log)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Store.Close() }()
	colds := 0
	cold := func() (*core.Identifier, error) {
		colds++
		return TrainBank(2, 1, "Aria")
	}
	check := func(id *core.Identifier, sha string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if id.Workers() != runtime.GOMAXPROCS(0) || id.Cache() == nil {
			t.Errorf("boot bank: %d workers, cache %v", id.Workers(), id.Cache() != nil)
		}
		if _, stored, err := st.Models().Load(); err != nil || stored != sha {
			t.Errorf("boot reported sha %.12s, the store serves %.12s (%v)", sha, stored, err)
		}
	}
	id, first, err := BootBank(st.Models(), nil, cold, log)
	check(id, first, err)
	id, second, err := BootBank(st.Models(), obs.NewRegistry(), cold, log)
	check(id, second, err)
	if colds != 1 || second != first || !strings.Contains(out.String(), "loaded model bank from disk") {
		t.Errorf("second boot: %d cold builds, sha %.12s after %.12s\n%s", colds, second, first, out.String())
	}
	if _, err := st.Models().SaveServing([]byte("not a bank")); err != nil {
		t.Fatal(err)
	}
	id, third, err := BootBank(st.Models(), nil, cold, log)
	check(id, third, err)
	if colds != 2 || third != first || !strings.Contains(out.String(), "stored model bank rejected") {
		t.Errorf("boot over a rejected bank: %d cold builds, sha %.12s\n%s", colds, third, out.String())
	}
	// Without a store there is nothing to load or persist.
	if id, sha, err := BootBank(nil, nil, cold, log); err != nil || sha != "" || id.Cache() == nil {
		t.Errorf("storeless boot: sha %q, %v", sha, err)
	}
}
