package learn

import (
	"errors"
	"sort"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/editdist"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/store"
)

// fuzzFingerprints decodes raw bytes into a small batch of
// fingerprints over a tiny feature alphabet (15 distinct vectors,
// words of up to 4 symbols), so normalized edit distances between them
// land on both sides of the linkage threshold and exact duplicates are
// common.
func fuzzFingerprints(data []byte) []fingerprint.Fingerprint {
	const maxFPs = 16
	var fps []fingerprint.Fingerprint
	for len(data) > 0 && len(fps) < maxFPs {
		n := 4
		if len(data) < n {
			n = len(data)
		}
		vs := make([]features.Vector, n)
		for i, b := range data[:n] {
			vs[i][features.FeatSize] = float64(b % 5)
			vs[i][features.FeatSrcPortClass] = float64((b / 5) % 3)
		}
		data = data[n:]
		fps = append(fps, fingerprint.FromVectors(vs))
	}
	return fps
}

func fuzzClusterSizes(l *Learner) []int {
	var sizes []int
	for _, c := range l.Clusters() {
		sizes = append(sizes, c.Members)
	}
	sort.Ints(sizes)
	return sizes
}

// FuzzClusterLinkage drives arbitrary fingerprint batches through the
// clusterer and checks it against an exact single-linkage reference:
// the learner's clusters must be precisely the connected components of
// the "normalized distance ≤ threshold" graph over unique
// fingerprints. It also pins the properties the design leans on:
// clustering is a function of the observation set (reversed arrival
// order yields the same components) and survives a snapshot/recover
// roundtrip.
func FuzzClusterLinkage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 0, 5, 5, 5, 5, 0, 0, 5, 5})
	f.Add([]byte{7, 11, 2, 9, 7, 11, 2, 8, 1, 1, 1, 1, 14, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fps := fuzzFingerprints(data)
		if len(fps) == 0 {
			t.Skip("no fingerprints decoded")
		}
		newLearner := func() *Learner {
			l, err := New(Config{
				K: 1 << 20, // never propose: this target is about linkage only
				Promote: func(core.TypeID, []fingerprint.Fingerprint) (*core.Identifier, error) {
					t.Error("unexpected promotion")
					return nil, errors.New("unexpected promotion")
				},
				Known: func(core.TypeID) bool { return false },
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return l
		}
		l := newLearner()
		defer l.Close()
		for _, fp := range fps {
			l.Observe(fp)
		}
		l.Wait()

		// Reference: union-find over canonically-unique fingerprints,
		// joining every pair within the linkage threshold.
		var uniq []fingerprint.Fingerprint
		dedup := make(map[fingerprint.Key]bool)
		for _, fp := range fps {
			if k := fp.CanonicalKey(); !dedup[k] {
				dedup[k] = true
				uniq = append(uniq, fp)
			}
		}
		parent := make([]int, len(uniq))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				x = parent[x]
			}
			return x
		}
		for i := range uniq {
			for j := i + 1; j < len(uniq); j++ {
				if editdist.Normalized(uniq[i].F, uniq[j].F) <= DefaultLinkage {
					parent[find(i)] = find(j)
				}
			}
		}

		l.mu.Lock()
		owner := make([]*cluster, len(uniq))
		for i, fp := range uniq {
			owner[i] = l.seen[fp.CanonicalKey()]
		}
		members := 0
		for _, c := range l.clusters {
			members += len(c.members)
		}
		l.mu.Unlock()

		for i := range uniq {
			if owner[i] == nil {
				t.Fatalf("unique fingerprint %d was never clustered", i)
			}
		}
		if members != len(uniq) {
			t.Fatalf("clusters hold %d members, want %d (one per unique fingerprint)", members, len(uniq))
		}
		for i := range uniq {
			for j := i + 1; j < len(uniq); j++ {
				wantSame := find(i) == find(j)
				if gotSame := owner[i] == owner[j]; gotSame != wantSame {
					t.Fatalf("fingerprints %d and %d: learner same-cluster=%v, single-linkage components say %v",
						i, j, gotSame, wantSame)
				}
			}
		}

		// Order independence: reversed arrivals, same components.
		rev := newLearner()
		defer rev.Close()
		for i := len(fps) - 1; i >= 0; i-- {
			rev.Observe(fps[i])
		}
		rev.Wait()
		want := fuzzClusterSizes(l)
		if got := fuzzClusterSizes(rev); !equalIntSlices(got, want) {
			t.Fatalf("reversed arrival order clustered %v, forward order %v", got, want)
		}

		// Snapshot → Recover roundtrip reproduces the clusters.
		rec := newLearner()
		defer rec.Close()
		stats, err := rec.Recover(&store.Recovery{Snapshot: &store.Snapshot{Learn: l.SnapshotState()}})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if stats.Members != len(uniq) {
			t.Fatalf("Recover restored %d members, want %d", stats.Members, len(uniq))
		}
		if got := fuzzClusterSizes(rec); !equalIntSlices(got, want) {
			t.Fatalf("recovered learner clustered %v, original %v", got, want)
		}
	})
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
