package capture

import (
	"testing"
	"time"
)

// BenchmarkRingHandoff is the ring with nothing behind it: this
// goroutine injects 128-byte frames into a lossless ring as fast as it
// can and a second one receives them, so ns/op is the slower side's cost
// of handing one frame over, waits for the other side included.
// frames/block is the batching the publish rule reached — the reader
// here does no work per frame, so it runs dry more often than a reader
// with a gateway behind it.
func BenchmarkRingHandoff(b *testing.B) {
	r := NewRing(RingConfig{Lossless: true})
	blocks := make(chan int)
	go func() {
		n := 0
		for {
			if _, err := r.Recv(); err != nil {
				blocks <- n
				return
			}
			if r.blockDone() {
				n++
			}
		}
	}()
	frame := frameFor(1, 128)
	ts := time.Unix(1460100000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Inject(ts, frame); err != nil {
			b.Fatal(err)
		}
	}
	r.Close()
	n := <-blocks // the reader has drained: every frame crossed
	b.StopTimer()
	b.ReportMetric(float64(b.N)/float64(n), "frames/block")
}
