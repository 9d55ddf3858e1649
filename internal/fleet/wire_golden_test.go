package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/testutil"
)

// recordingConn keeps every byte the gateway end writes.
type recordingConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (c recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// rawFrame is one frame as it sat on the wire, header included.
type rawFrame struct {
	t     frameType
	bytes []byte
}

// splitFrames cuts a byte stream into whole frames (a torn tail is
// dropped) and sets the heartbeats apart: a timer writes those wherever it
// fires among the rest, whose order the script fixes.
func splitFrames(stream []byte) (scripted, beats []rawFrame) {
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		start := len(stream) - r.Len()
		t, _, err := readFrame(r)
		if err != nil {
			break
		}
		f := rawFrame{t, stream[start : len(stream)-r.Len()]}
		if t == ftHeartbeat {
			beats = append(beats, f)
		} else {
			scripted = append(scripted, f)
		}
	}
	return scripted, beats
}

// TestWireGolden scripts one exchange — hello, two sealed batches and
// the counters replayed at connect, the ack of a pushed bank, a
// heartbeat — and compares what the gateway wrote with
// testdata/wire_golden.bin, which this same script recorded at commit
// 47c5bfb, the last one where Session drove a separate Client. Every
// frame is byte-identical except the model_ack, whose sha/ok/error are
// equal as the three-field decoder of that commit reads them (the
// frame has since gained the optional counter base). Re-record the
// file only from that commit.
func TestWireGolden(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	want, err := os.ReadFile("testdata/wire_golden.bin")
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bank := []byte("golden-bank")
	served := make(chan struct{}) // closed once the ack and a heartbeat have arrived
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if ft, _, err := readFrame(c); err != nil || ft != ftHello {
			return
		}
		welcome, _ := json.Marshal(welcomeMsg{Version: ProtocolV2, LeaseMillis: time.Hour.Milliseconds()})
		writeFrame(c, ftWelcome, welcome)
		acked, beat, done := false, false, false
		for {
			ft, payload, err := readFrame(c)
			if err != nil {
				return
			}
			switch ft {
			case ftBatch:
				fps, _ := decodeBatch(payload)
				ack, _ := json.Marshal(batchAckMsg{Accepted: len(fps)})
				writeFrame(c, ftBatchAck, ack)
			case ftCounters:
				writeFrame(c, ftModelPush, encodeModelPush(sha256.Sum256(bank), bank))
			case ftModelAck:
				acked = true
			case ftHeartbeat:
				writeFrame(c, ftHeartbeat, nil)
				beat = true
			}
			if acked && beat && !done {
				done = true
				close(served)
			}
		}
	}()

	var (
		mu   sync.Mutex
		sent bytes.Buffer
		gate = make(chan struct{})
	)
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID:  "golden-gw",
			ModelSHA:   "feedface",
			BatchSize:  2,
			Heartbeat:  500 * time.Millisecond,
			ApplyModel: func(string, []byte) error { return nil },
			Dialer: func() (net.Conn, error) {
				<-gate
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return nil, err
				}
				return recordingConn{Conn: c, mu: &mu, buf: &sent}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything is handed over before the link exists, so what connects
	// replays it in one fixed order: batches, then counters.
	for i, rows := range []int{3, 5, 12, 1} {
		if err := sess.Observe(testFingerprint(rows, float64(i+1))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	sess.RecordAssessment(false)
	sess.RecordAssessment(true)
	sess.RecordAssessment(false)
	close(gate)
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the scripted exchange did not complete")
	}
	sess.Close()

	mu.Lock()
	got, gotBeats := splitFrames(sent.Bytes())
	mu.Unlock()
	wantFrames, wantBeats := splitFrames(want)
	if len(got) != len(wantFrames) {
		t.Fatalf("gateway wrote %d frames besides heartbeats, the recording has %d", len(got), len(wantFrames))
	}
	if len(gotBeats) == 0 || len(wantBeats) == 0 || !bytes.Equal(gotBeats[0].bytes, wantBeats[0].bytes) {
		t.Errorf("heartbeat frames %v differ from the recording's %v", gotBeats, wantBeats)
	}
	for i, w := range wantFrames {
		g := got[i]
		if g.t != w.t {
			t.Fatalf("frame %d is %s, the recording has %s", i, g.t, w.t)
		}
		if w.t != ftModelAck {
			if !bytes.Equal(g.bytes, w.bytes) {
				t.Errorf("%s frame %d differs from the recording:\n got %x\nwant %x", w.t, i, g.bytes, w.bytes)
			}
			continue
		}
		type parentModelAck struct {
			SHA   string `json:"sha"`
			OK    bool   `json:"ok"`
			Error string `json:"error,omitempty"`
		}
		var ga, wa parentModelAck
		if err := json.Unmarshal(g.bytes[5:], &ga); err != nil {
			t.Fatalf("the parent's decoder rejects this model_ack: %v", err)
		}
		if err := json.Unmarshal(w.bytes[5:], &wa); err != nil {
			t.Fatal(err)
		}
		if ga != wa || !wa.OK {
			t.Errorf("model_ack reads %+v through the parent's decoder, the recording %+v", ga, wa)
		}
	}
}
