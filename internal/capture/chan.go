package capture

import (
	"io"
	"sync"
	"time"
)

// ChanSource is the portable fallback Source: a bounded channel of
// owned frames. It is the adapter everything in-process feeds — the
// netsim lab's mirror tap, tests, any producer that already has
// (timestamp, bytes) pairs — and the reference implementation the
// ring's semantics are checked against.
type ChanSource struct {
	ch        chan Frame
	closeOnce sync.Once
	done      chan struct{}
}

// NewChanSource builds a source with the given buffer depth (minimum 1).
func NewChanSource(depth int) *ChanSource {
	if depth < 1 {
		depth = 1
	}
	return &ChanSource{ch: make(chan Frame, depth), done: make(chan struct{})}
}

// Send offers one frame, blocking while the buffer is full. The slice
// is handed over as-is: the caller must not reuse it. Returns
// ErrClosed after Close.
func (s *ChanSource) Send(ts time.Time, frame []byte) error {
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	select {
	case s.ch <- Frame{Time: ts, Data: frame}:
		return nil
	case <-s.done:
		return ErrClosed
	}
}

// Recv returns the next frame, or io.EOF once closed and drained.
func (s *ChanSource) Recv() (Frame, error) {
	select {
	case f := <-s.ch:
		return f, nil
	case <-s.done:
		// Drain what racing senders already buffered.
		select {
		case f := <-s.ch:
			return f, nil
		default:
			return Frame{}, io.EOF
		}
	}
}

// Close ends the stream; buffered frames are still delivered.
func (s *ChanSource) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	return nil
}
