package core

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker-pool plumbing for the classifier bank. Training one classifier
// per device-type and identifying each fingerprint of a batch are
// independent, coarse work items, so Train and IdentifyBatch share one
// bounded fan-out primitive. (One identification is not: splitting its
// ~4 µs bank scan across goroutines cost more in wake-ups than the
// scan itself, so it runs on the caller's goroutine.) Determinism is
// preserved by construction: work items never share mutable state, every
// per-type RNG is derived from the top-level seed by a stable hash of
// the type ID (not from shared stream order), and results are merged in
// canonical (sorted type / input index) order.

// minBatchPerWorker is the fewest fingerprints IdentifyBatch hands a
// goroutine: waking a processor costs tens of µs, an identification
// 0.4–6. Split two ways on the 2-core host, a batch of 16 read 66 →
// 87–102 µs, 64 read 398–570 → 232–367 µs (CHANGES.md, the entry
// that compiled the bank scan).
const minBatchPerWorker = 16

// workerBound resolves a configured worker bound: 0 selects
// runtime.GOMAXPROCS(0), anything positive is taken as-is. Negative
// values are rejected earlier, by Config.normalize and ApplyRuntime.
func workerBound(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// typeSeed derives the training seed for one device-type from the
// top-level seed. Hash-based derivation (FNV-1a over seed ‖ type ID)
// makes each type's RNG independent of how many other types exist and
// of the order they are trained in, so sequential and parallel training
// produce bit-identical models and WithType is reproducible even after a
// Save/Load round trip.
func typeSeed(seed int64, t TypeID) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(t))
	return int64(h.Sum64())
}

// runIndexed executes fn(0..n-1) across at most workers goroutines.
// Items are claimed with an atomic counter (work stealing), so callers
// must make fn(i) independent of fn(j). The lowest-index error is
// returned regardless of completion order, matching what a sequential
// loop would surface first.
func runIndexed(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachIndexed is runIndexed for infallible work items.
func forEachIndexed(workers, n int, fn func(i int)) {
	_ = runIndexed(workers, n, func(i int) error {
		fn(i)
		return nil
	})
}
