package devices

import "testing"

// BenchmarkGenerateDataset generates and fingerprints one setup capture
// of every catalog type per op: the substrate's cost behind every
// training set and most of a benchmark set-up. It uses only the
// exported API, so this file drops into an older commit for a pair.
func BenchmarkGenerateDataset(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ds := GenerateDataset(1, 1); ds.Size() != 27 {
			b.Fatalf("dataset of %d fingerprints", ds.Size())
		}
	}
}
