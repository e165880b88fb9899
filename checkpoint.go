package vod

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/core"
)

// Checkpoint envelope. A checkpoint file is:
//
//	magic "VODCKPT1" | spec JSON (length-prefixed) | core state
//
// all through one varint codec stream. The spec travels inside the
// checkpoint so LoadCheckpoint can rebuild a process-equivalent System
// without the caller re-supplying the configuration; the core state
// additionally embeds a config fingerprint, so a checkpoint pasted onto a
// hand-edited spec is rejected rather than silently diverging.
//
// Version policy: the trailing digit of the magic is the envelope version
// and coreStateVersion (inside the core state) versions the state layout.
// Either mismatch fails loudly — checkpoints are short-lived operational
// artifacts (daemon restarts, migrations), not an archival format, so
// there is no cross-version migration path.
//
// Checkpoints must be taken between rounds (never mid-Step) and do not
// include the demand generator: the feed is an external input the
// operator reattaches after restore.

// checkpointMagic identifies a vod checkpoint stream, envelope version 1.
var checkpointMagic = []byte("VODCKPT1")

// SaveCheckpoint serializes the full system state to w. The system must
// be quiescent (between Step calls).
func (s *System) SaveCheckpoint(w io.Writer) error {
	cw := ckpt.NewWriter(w)
	cw.Bytes(checkpointMagic)
	specJSON, err := json.Marshal(s.spec)
	if err != nil {
		return fmt.Errorf("vod: encode spec: %w", err)
	}
	cw.Bytes(specJSON)
	if err := s.inner.EncodeState(cw); err != nil {
		return fmt.Errorf("vod: encode state: %w", err)
	}
	return cw.Flush()
}

// LoadCheckpoint rebuilds a System from a stream written by
// SaveCheckpoint. The restored system resumes bit-identically: stepping
// it with the same demand feed produces the same results the saved
// system would have produced.
//
// The spec's box count is a claim the stream backs with one count per
// box, so the state's head is read up to those counts before anything of
// the spec's size is built. The allocation's permutation is then drawn on
// a second goroutine while this one decodes the rest of the state, and
// the load costs about the longer of the two instead of their sum.
func LoadCheckpoint(r io.Reader) (*System, error) {
	cr := ckpt.NewReader(r)
	magic := cr.Bytes()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("vod: read checkpoint header: %w", err)
	}
	if !bytes.Equal(magic, checkpointMagic) {
		return nil, fmt.Errorf("vod: not a checkpoint (or unsupported version): magic %q", magic)
	}
	specJSON := cr.Bytes()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("vod: read checkpoint spec: %w", err)
	}
	var spec Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, fmt.Errorf("vod: decode checkpoint spec: %w", err)
	}
	head, err := core.ReadStateHead(cr, spec.Boxes)
	if err != nil {
		return nil, fmt.Errorf("vod: decode checkpoint state: %w", err)
	}
	sys, cfg, fill, err := assemble(spec)
	if err != nil {
		return nil, fmt.Errorf("vod: rebuild from checkpoint spec: %w", err)
	}
	if sys.inner, err = core.Restore(cfg, head, cr, fill); err != nil {
		return nil, fmt.Errorf("vod: decode checkpoint state: %w", err)
	}
	return sys, nil
}
