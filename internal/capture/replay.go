package capture

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"iotsentinel/internal/pcap"
)

// Replay plays the capture files at paths, in order, through the path
// live traffic takes: every pcap / pcapng record is injected into a
// lossless fanout of GOMAXPROCS rings, and a pump hands each decoded
// frame to h. Records are read lazily (pcap.NewAutoReader), so a
// multi-gigabyte trace holds one frame in memory, not the file.
//
// Replay returns once every reader has drained, with the records
// injected and the latest timestamp among them. A file that cannot be
// opened or parsed ends the replay with an error naming it; the frames
// injected before it are still delivered.
func Replay(paths []string, h Handler, m *Metrics) (frames int, last time.Time, err error) {
	f := NewFanout(runtime.GOMAXPROCS(0), RingConfig{Lossless: true})
	p := Attach(f, h, PumpConfig{Metrics: m})
	defer p.Close()
	for _, path := range paths {
		if err := injectFile(f, path, &frames, &last); err != nil {
			return frames, last, fmt.Errorf("capture: %s: %w", path, err)
		}
	}
	return frames, last, nil
}

func injectFile(f *Fanout, path string, frames *int, last *time.Time) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	rd, err := pcap.NewAutoReader(file)
	if err != nil {
		return err
	}
	for {
		rec, err := rd.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := f.Inject(rec.Time, rec.Data); err != nil {
			return err
		}
		*frames++
		if rec.Time.After(*last) {
			*last = rec.Time
		}
	}
}
