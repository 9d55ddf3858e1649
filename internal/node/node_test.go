package node

import (
	"bytes"
	"errors"
	"io"
	"log"
	"runtime"
	"strings"
	"testing"

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
	if cfg.Store != st.Store || cfg.OnUnknown != nil || cfg.LearnState != nil {
		t.Error("store not wired, or a learner feed without a learner")
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
// the reference bank minus held-out types, a learner wired to promote
// into it and persist to the state dir, and a bank arriving as bytes.
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
	l, err := NewLearner(svc, st, learn.Config{K: 3}, log)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	full, err := TrainBank(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := full.Save(&model); err != nil {
		t.Fatal(err)
	}
	if err := InstallModel(svc, model.Bytes()); err != nil {
		t.Fatal(err)
	}
	if now := svc.Identifier(); now.NumTypes() != 27 || now.Workers() != runtime.GOMAXPROCS(0) || now.Cache() == nil {
		t.Errorf("installed bank: %d types, %d workers, cache %v; want 27 with the serving bank's runtime",
			now.NumTypes(), now.Workers(), now.Cache() != nil)
	}
	if err := InstallModel(svc, model.Bytes()[:model.Len()/2]); err == nil {
		t.Error("truncated model installed")
	}
	for _, want := range []string{"learning enabled (k=3)", "learn: recovered 0 clusters"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("log missing %q:\n%s", want, out.String())
		}
	}
}
