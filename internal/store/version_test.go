package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func TestModelVersionRoundTrip(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	ms := s.Models()
	blob := []byte(`{"fake":"model bank"}`)
	sha, err := ms.SaveVersion(blob)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if want := hex.EncodeToString(sum[:]); sha != want {
		t.Fatalf("sha = %s, want %s", sha, want)
	}
	got, err := ms.LoadVersion(sha)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("round-trip mutated the blob: %q", got)
	}
	// Idempotent re-save.
	again, err := ms.SaveVersion(blob)
	if err != nil || again != sha {
		t.Fatalf("re-save = %s, %v", again, err)
	}
	// Two versions coexist (current + candidate + baseline is the
	// rollout working set).
	sha2, err := ms.SaveVersion([]byte("another bank"))
	if err != nil {
		t.Fatal(err)
	}
	if sha2 == sha {
		t.Fatal("distinct blobs collided")
	}
	if _, err := ms.LoadVersion(sha); err != nil {
		t.Fatalf("first version lost after second save: %v", err)
	}
}

func TestModelVersionDetectsCorruption(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	ms := s.Models()
	sha, err := ms.SaveVersion([]byte("pristine bytes"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ms.dir, versionsDir, sha+".model")
	if err := os.WriteFile(path, []byte("tampered bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.LoadVersion(sha); err == nil {
		t.Fatal("corrupt version blob loaded without error")
	}
	if _, err := ms.LoadVersion("00ff00ff"); err == nil {
		t.Fatal("missing version loaded without error")
	}
	// Saving the bytes again repairs the blob rather than trusting the
	// name of a damaged file.
	if again, err := ms.SaveVersion([]byte("pristine bytes")); err != nil || again != sha {
		t.Fatalf("re-save = %s, %v", again, err)
	}
	if _, err := ms.LoadVersion(sha); err != nil {
		t.Fatalf("re-saved version still corrupt: %v", err)
	}
}

// TestRolloutEventsAreDurable pins that every rollout transition is
// fsynced on append: a crashed controller must find rollout_started in
// the journal, not lose it to a batched fsync.
func TestRolloutEventsAreDurable(t *testing.T) {
	for _, kind := range []EventKind{EvRolloutStarted, EvRolloutPromoted, EvRolloutRolledBack} {
		ev := Event{Kind: kind}
		if !ev.durable() {
			t.Errorf("%s is not durable", kind)
		}
	}
}

// TestRolloutEventRoundTrip pins the new journal fields through a real
// append + reopen.
func TestRolloutEventRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Event{
		Kind:          EvRolloutStarted,
		Model:         "aabb",
		BaselineModel: "ccdd",
		Canaries:      []string{"gw-1", "gw-3"},
	}
	if _, err := st.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 1 {
		t.Fatalf("recovered %d events, want 1", len(rec.Events))
	}
	got := rec.Events[0]
	if got.Kind != want.Kind || got.Model != want.Model ||
		got.BaselineModel != want.BaselineModel ||
		len(got.Canaries) != 2 || got.Canaries[0] != "gw-1" || got.Canaries[1] != "gw-3" {
		t.Errorf("rollout event mangled by journal round-trip: %+v", got)
	}
}
