package learn

import (
	"runtime"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
)

// TestNewLearnerFootprint pins what a learner that has seen nothing
// keeps on the heap: at most 64 KB. Its observation queue is the bulk
// of it, queueDepth slots of F (24 B each); slots of whole Fingerprint
// values held 256 × 2 240 B = 573 KB. Not parallel: it reads the
// process heap.
func TestNewLearnerFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC() // twice: the second empties the sync.Pool victim caches
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, err := New(Config{
		Promote: func(core.TypeID, []fingerprint.Fingerprint) (*core.Identifier, error) { return nil, nil },
		Known:   func(core.TypeID) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	l.Close()
	t.Logf("a fresh learner retains %.0f B", got)
	if got > 64<<10 {
		t.Errorf("a fresh learner retains %.0f B, bound %d", got, 64<<10)
	}
}
