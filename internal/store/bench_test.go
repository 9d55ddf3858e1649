package store

import (
	"testing"
	"time"
)

// BenchmarkAppendRoutine is what a routine journal record costs its
// caller — the capture reader announcing a new device, inside a shard's
// critical section: encode into the journal's tail, no disk. The
// committer's group commits run beside it as they do in a gateway.
func BenchmarkAppendRoutine(b *testing.B) {
	s, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	at := time.Unix(7000, 0)
	ev := Event{Kind: EvCaptureStarted, MAC: mac(1), At: at, FirstSeen: at}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}
