package core

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// TestRestoreWaitsForTheFill hands Restore a fill that sleeps and then
// records that it returned, so that every stream below fails, or loads,
// while the fill is still running: an honest checkpoint, one cut after its
// head (the decode fails at once), one whose fingerprint is found wrong
// only after the whole stream has decoded, one only the audit refuses, and
// a configuration NewSystem refuses. Each Restore must return after the
// fill has, so no goroutine of it outlives the call.
func TestRestoreWaitsForTheFill(t *testing.T) {
	live, build := liveCheckpoint(t)
	honest := encodeSystem(t, live)
	head := streamOfWrites(func(w *ckpt.Writer) {
		writeSlotHead(w, live)
		w.I32s(progressTable(live))
		w.I32s(live.freeSlots)
		for b := range live.boxes {
			w.I32(live.boxes[b].outstanding)
		}
	})
	if !bytes.HasPrefix(honest, head) {
		t.Fatal("EncodeState's head moved")
	}
	wrongPrint := bytes.Clone(honest)
	wrongPrint[1] ^= 1                    // the fingerprint's first varint byte, after the 1-byte version
	busyIdle := restore(t, build, honest) // a live request's viewer, busy, in the idle list
	busyIdle.idleList = append(busyIdle.idleList, busyIdle.reqViewer[busyIdle.matcher.ActiveLefts()[0]])
	shortUploads := live.cfg
	shortUploads.Uploads = shortUploads.Uploads[1:]

	for _, tc := range []struct {
		name   string
		cfg    Config
		stream []byte
		want   string
	}{
		{"honest", live.cfg, honest, ""},
		{"cut after the head", live.cfg, head, "EOF"},
		{"fingerprint found wrong after the decode", live.cfg, wrongPrint, "does not match configuration"},
		{"refused by the audit", live.cfg, encodeSystem(t, busyIdle), "which is busy or listed twice"},
		{"refused by NewSystem", shortUploads, honest, "uploads for"},
	} {
		r := ckpt.NewReader(bytes.NewReader(tc.stream))
		h, err := ReadStateHead(r, live.n)
		if err != nil {
			t.Fatalf("%s: head refused: %v", tc.name, err)
		}
		var filled atomic.Bool
		s, err := Restore(tc.cfg, h, r, func() {
			time.Sleep(20 * time.Millisecond)
			filled.Store(true)
		})
		if !filled.Load() {
			t.Errorf("%s: Restore returned (%v) before the fill did", tc.name, err)
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && !bytes.Equal(encodeSystem(t, s), honest):
			t.Errorf("%s: the restored system encodes to other bytes", tc.name)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Restore returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
