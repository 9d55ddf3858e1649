package iotssp

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/store"
)

func bankBytes(t *testing.T, id *core.Identifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// installBytes is how a daemon installs a bank that arrives as bytes
// (fleet push, rollout rollback).
func installBytes(svc *Service, model []byte) error {
	id, err := core.LoadIdentifier(bytes.NewReader(model))
	if err != nil {
		return err
	}
	return svc.Install(id)
}

// headTwin returns a fingerprint that shares fp's head and nothing
// else the caches key on: repeating a symbol F already holds changes
// the full key and leaves the head alone.
func headTwin(t *testing.T, fp fingerprint.Fingerprint) fingerprint.Fingerprint {
	t.Helper()
	twin := fingerprint.FromPacked(append(append([]features.Packed(nil), fp.F...), fp.F[0]))
	if twin.F.Head() != fp.F.Head() || twin.CanonicalKey() == fp.CanonicalKey() {
		t.Fatal("twin does not share the head alone")
	}
	return twin
}

// TestInstallCarriesRuntime: whatever the source of a bank — the model
// store (SIGHUP reload), bytes pushed over the fleet link, a rollback's
// baseline bytes, a learner promotion — the bank that ends up serving
// has the boot-time worker bound and cache size (0 = disabled
// included), a cache of its own that is empty at both levels, and the
// outgoing bank's metrics bundle with its counters running on. None of
// the sources applies any of that itself: a loaded bank comes with the
// default fan-out and no cache, and Install is what repairs it.
func TestInstallCarriesRuntime(t *testing.T) {
	cluster := devices.GenerateDataset(12, 33)["MAXGateway"]
	sources := []struct {
		name string
		// install puts a bank into svc and reports how many types it has.
		install func(t *testing.T, svc *Service) int
	}{
		{"model store", func(t *testing.T, svc *Service) int {
			st, _, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = st.Close() }()
			if _, err := st.Models().Save(svc.Identifier()); err != nil {
				t.Fatal(err)
			}
			id, _, err := st.Models().Load()
			if err != nil {
				t.Fatal(err)
			}
			if id.Cache() != nil {
				t.Fatal("a bank loaded from the model store carries a cache: the test proves nothing")
			}
			if err := svc.Install(id); err != nil {
				t.Fatal(err)
			}
			return 5
		}},
		{"fleet push", func(t *testing.T, svc *Service) int {
			grown, err := svc.Identifier().WithType("MAXGateway", cluster)
			if err != nil {
				t.Fatal(err)
			}
			if err := installBytes(svc, bankBytes(t, grown)); err != nil {
				t.Fatal(err)
			}
			return 6
		}},
		{"rollback", func(t *testing.T, svc *Service) int {
			baseline := bankBytes(t, svc.Identifier())
			if _, err := svc.PromoteType("MAXGateway", cluster); err != nil {
				t.Fatal(err)
			}
			if err := installBytes(svc, baseline); err != nil {
				t.Fatal(err)
			}
			return 5
		}},
		{"PromoteType", func(t *testing.T, svc *Service) int {
			if _, err := svc.PromoteType("MAXGateway", cluster); err != nil {
				t.Fatal(err)
			}
			return 6
		}},
	}
	boots := []struct {
		name               string
		workers, cacheSize int
	}{
		{"cached", 3, 2},
		{"cache disabled", 1, 0},
	}
	probes := []fingerprint.Fingerprint{probeFor(t, "HueBridge", 100), probeFor(t, "EdnetCam", 101), probeFor(t, "Aria", 102)}

	for _, boot := range boots {
		for _, src := range sources {
			t.Run(boot.name+"/"+src.name, func(t *testing.T) {
				svc, _ := testService(t)
				old := svc.Identifier()
				if err := old.ApplyRuntime(boot.workers, boot.cacheSize); err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				old.SetMetrics(core.NewMetrics(reg))
				// Warm the outgoing bank's cache at both levels.
				for i := 0; i < 2; i++ {
					if _, err := svc.Assess(probes[0]); err != nil {
						t.Fatal(err)
					}
				}
				before := reg.Snapshot().Value("core_identifications_total")

				wantTypes := src.install(t, svc)

				next := svc.Identifier()
				if next == old {
					t.Fatal("the serving bank was not swapped")
				}
				if got := next.NumTypes(); got != wantTypes {
					t.Errorf("serving bank has %d types, want %d", got, wantTypes)
				}
				if got := next.Workers(); got != boot.workers {
					t.Errorf("worker bound = %d after install, want the boot value %d", got, boot.workers)
				}
				if next.Metrics() == nil || next.Metrics() != old.Metrics() {
					t.Error("the metrics bundle was not carried over")
				}
				if boot.cacheSize == 0 {
					if next.Cache() != nil {
						t.Fatal("cache size 0 must keep the cache disabled across an install")
					}
				} else {
					c := next.Cache()
					if c == nil {
						t.Fatal("the installed bank has no identification cache")
					}
					if c == old.Cache() {
						t.Fatal("the installed bank shares the outgoing bank's cache")
					}
					hits, misses := c.Stats()
					headHits, headMisses := c.HeadStats()
					if c.Len() != 0 || hits+misses+headHits+headMisses != 0 {
						t.Fatalf("the installed bank's cache is not fresh: %d entries, %d/%d full-key and %d/%d head lookups",
							c.Len(), hits, misses, headHits, headMisses)
					}
					// A capture that shares only its head with one the old
					// bank answered must run the new bank's forests.
					if _, err := svc.Assess(headTwin(t, probes[0])); err != nil {
						t.Fatal(err)
					}
					if headHits, headMisses := c.HeadStats(); headHits != 0 || headMisses != 1 {
						t.Errorf("head memo after one fresh probe: %d hits, %d misses, want 0 and 1", headHits, headMisses)
					}
					// The cache works, and at the boot size: none of these
					// probes is discriminated, so the head memo answers
					// them. Two heads fit — the twin's and probes[1]'s...
					assessHeadHits := func(fps ...fingerprint.Fingerprint) uint64 {
						t.Helper()
						before, _ := c.HeadStats()
						for _, fp := range fps {
							if _, err := svc.Assess(fp); err != nil {
								t.Fatal(err)
							}
						}
						after, _ := c.HeadStats()
						return after - before
					}
					if n := assessHeadHits(probes[0], probes[1], probes[0], probes[1]); n != 3 {
						t.Errorf("%d head hits on two heads, want 3: the cache holds fewer than %d", n, boot.cacheSize)
					}
					// ...and a third evicts one of them.
					if n := assessHeadHits(probes[2], probes[0], probes[1]); n > 1 {
						t.Errorf("%d head hits on two heads after a third, want at most 1: the cache holds more than %d", n, boot.cacheSize)
					}
					if n := assessHeadHits(probes[1]); n != 1 {
						t.Error("repeat identification after install missed the cache")
					}
					if hits, misses := c.Stats(); hits+misses != 0 || c.Len() != 0 {
						t.Errorf("%d full-key lookups and %d entries for probes no two types accept", hits+misses, c.Len())
					}
				}
				if _, err := svc.Assess(probes[1]); err != nil {
					t.Fatal(err)
				}
				if after := reg.Snapshot().Value("core_identifications_total"); after <= before {
					t.Errorf("core_identifications_total stopped at the swap: %v before, %v after", before, after)
				}
			})
		}
	}
}

// TestPromoteValidationUncounted: PromoteType validates the grown bank
// before it serves, on that bank unbound (core.Identifier.WithType), so
// the validation pass adds to none of the serving bank's core_* series
// and touches none of its cache. Only the swap binds the new bank, and
// the next assessment counts as usual.
func TestPromoteValidationUncounted(t *testing.T) {
	svc, _ := testService(t)
	old := svc.Identifier()
	if err := old.ApplyRuntime(0, 64); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	old.SetMetrics(core.NewMetrics(reg))
	probe := probeFor(t, "HueBridge", 100)
	if _, err := svc.Assess(probe); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	cluster := devices.GenerateDataset(12, 33)["MAXGateway"]
	if _, err := svc.PromoteType("MAXGateway", cluster); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	for _, series := range []string{"core_identifications_total", "core_identify_unknown_total", "core_edit_distances_total", "core_classify_seconds_count"} {
		if b, a := before.Value(series), after.Value(series); a != b {
			t.Errorf("%s went from %v to %v across PromoteType: the validation pass was counted", series, b, a)
		}
	}
	if hits, misses := old.Cache().HeadStats(); hits+misses != 1 {
		t.Errorf("the serving cache saw %d head lookups, want only the one assessment's", hits+misses)
	}
	if _, err := svc.Assess(probe); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Snapshot().Value("core_identifications_total"), before.Value("core_identifications_total")+1; got != want {
		t.Errorf("core_identifications_total = %v after one assessment on the promoted bank, want %v", got, want)
	}
}

// TestInstallRejected: an install that cannot serve leaves the serving
// bank, and its warm cache, exactly as they were.
func TestInstallRejected(t *testing.T) {
	svc, _ := testService(t)
	old := svc.Identifier()
	if err := old.ApplyRuntime(0, 64); err != nil {
		t.Fatal(err)
	}
	probe := probeFor(t, "HueBridge", 100)
	if _, err := svc.Assess(probe); err != nil {
		t.Fatal(err)
	}
	cache := old.Cache()
	good := bankBytes(t, old)
	rejects := map[string]func() error{
		"nil":            func() error { return svc.Install(nil) },
		"zero types":     func() error { return svc.Install(&core.Identifier{}) },
		"corrupt bytes":  func() error { return installBytes(svc, append([]byte("x"), good...)) },
		"truncated file": func() error { return installBytes(svc, good[:len(good)/2]) },
	}
	for name, install := range rejects {
		if err := install(); err == nil {
			t.Errorf("%s: install accepted", name)
		}
		if svc.Identifier() != old || old.Cache() != cache {
			t.Fatalf("%s: a rejected install disturbed the serving bank", name)
		}
	}
	if a, err := svc.Assess(probe); err != nil || a.Type != "HueBridge" {
		t.Errorf("assessment after rejected installs = %+v, %v", a, err)
	}
	// The probe matches one type, so its entry is its head's accept set.
	if hits, misses := cache.HeadStats(); hits != 1 || misses != 1 {
		t.Errorf("the serving cache lost its entry: %d head hits, %d misses", hits, misses)
	}
}

// TestInstallAssessPromoteConcurrently races the three things that
// touch the serving pointer — assessments reading it, installs and
// promotions moving it — for the race detector, and checks that
// whichever bank serves at the end is dressed for service.
func TestInstallAssessPromoteConcurrently(t *testing.T) {
	svc, _ := testService(t)
	if err := svc.Identifier().ApplyRuntime(2, 64); err != nil {
		t.Fatal(err)
	}
	metrics := core.NewMetrics(obs.NewRegistry())
	svc.Identifier().SetMetrics(metrics)
	baseline := bankBytes(t, svc.Identifier())
	cluster := devices.GenerateDataset(12, 33)["MAXGateway"]
	probes := []fingerprint.Fingerprint{probeFor(t, "HueBridge", 100), probeFor(t, "MAXGateway", 103), probeFor(t, "Aria", 102)}

	stop := make(chan struct{})
	var assessors, movers sync.WaitGroup
	for g := 0; g < 4; g++ {
		assessors.Add(1)
		go func(g int) {
			defer assessors.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Assess(probes[i%len(probes)]); err != nil {
					t.Errorf("Assess: %v", err)
					return
				}
			}
		}(g)
	}
	movers.Add(2)
	go func() {
		defer movers.Done()
		for i := 0; i < 6; i++ {
			if err := installBytes(svc, baseline); err != nil {
				t.Errorf("Install: %v", err)
			}
		}
	}()
	go func() {
		defer movers.Done()
		for i := 0; i < 3; i++ {
			// An install landing on every attempt, or a promotion that
			// already landed and was not yet rolled back, are both fair
			// outcomes of the race.
			_, err := svc.PromoteType("MAXGateway", cluster)
			if err != nil && !errors.Is(err, ErrBankChanged) && !strings.Contains(err.Error(), "already trained") {
				t.Errorf("PromoteType: %v", err)
			}
		}
	}()
	movers.Wait()
	close(stop)
	assessors.Wait()

	id := svc.Identifier()
	if id.Workers() != 2 || id.Cache() == nil || id.Metrics() != metrics {
		t.Errorf("serving bank after the race: workers %d, cache %v, metrics carried %v",
			id.Workers(), id.Cache() != nil, id.Metrics() == metrics)
	}
}
