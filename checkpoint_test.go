package vod

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSaveLoadCheckpoint exercises the public envelope: run a workload,
// checkpoint mid-run, restore, and verify the restored system resumes
// bit-identically under the same demand feed. The core-level differential
// (internal/core) pins the heavy state machinery; this test pins the
// envelope — spec round-trip, magic, and generator reattachment.
func TestSaveLoadCheckpoint(t *testing.T) {
	spec := Spec{Boxes: 30, Upload: 2.0, Growth: 1.3, Resilient: true, Seed: 11}
	live, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewZipfWorkload(3, 0.4, 0.9)
	for r := 0; r < 40; r++ {
		if _, err := live.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := live.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != 40 {
		t.Fatalf("restored at round %d, want 40", restored.Round())
	}
	if !reflect.DeepEqual(restored.Spec(), spec) {
		t.Fatalf("spec did not round-trip: %+v vs %+v", restored.Spec(), spec)
	}

	// Demand feeds are external inputs: reattach identically seeded
	// generators (the live one has consumed 40 rounds of randomness, so
	// both sides get fresh ones) and compare the continuations.
	genA := NewZipfWorkload(99, 0.4, 0.9)
	genB := NewZipfWorkload(99, 0.4, 0.9)
	for r := 0; r < 30; r++ {
		resA, err := live.Step(genA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := restored.Step(genB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("round %d diverged: %+v vs %+v", resA.Round, resA, resB)
		}
	}
	if repA, repB := live.Report(), restored.Report(); !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports diverge after identical continuations")
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestLoadCheckpointAllocatesWhatTheFileHolds: a length prefix is a claim
// the file has to back. The 5-byte file is a magic length of 2^28 and
// nothing else, which once made LoadCheckpoint allocate 268 MB before it
// compared the magic; the second file is the right magic followed by a
// spec length of 2^31.
func TestLoadCheckpointAllocatesWhatTheFileHolds(t *testing.T) {
	spec := append([]byte{byte(len(checkpointMagic))}, checkpointMagic...)
	for _, file := range [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x01},
		append(spec, 0x80, 0x80, 0x80, 0x80, 0x08),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadCheckpoint(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("% x: loaded", file)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("% x: LoadCheckpoint allocated %d bytes on a %d-byte file", file, grew, len(file))
		}
	}
}

// TestCheckpointBytesAreAFunctionOfState pins byte determinism: two saves
// of one quiescent system are the same bytes, and so is a save of the
// system restored from them — whatever capacity or insertion history its
// hash tables and arenas have. An operator can then compare checkpoints
// with cmp, and a restart that changed nothing shows as no diff.
func TestCheckpointBytesAreAFunctionOfState(t *testing.T) {
	sys, err := New(Spec{Boxes: 60, Upload: 2.0, Growth: 1.3, Resilient: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewZipfWorkload(8, 0.4, 0.9)
	// Past T rounds, so cache entries have expired and slab ids and
	// index slots have been recycled.
	for r := 0; r < 150; r++ {
		if _, err := sys.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	save := func(s *System) []byte {
		var buf bytes.Buffer
		if err := s.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := save(sys), save(sys)
	if !bytes.Equal(first, second) {
		t.Fatal("two saves of one state differ")
	}
	restored, err := LoadCheckpoint(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(restored), first) {
		t.Fatal("save → load → save changed the bytes")
	}
}

// TestCheckpointSizeDoesNotGrowWithUptime: a checkpoint holds the live state
// and a handful of counters, so a daemon in steady state writes the same
// size of file in its first hour and its hundredth. (One float64 per
// admitted demand, as the file once carried, made the later save almost four times
// the earlier one here.)
func TestCheckpointSizeDoesNotGrowWithUptime(t *testing.T) {
	sys, err := New(Spec{Boxes: 200, Upload: 2.0, Duration: 40, Growth: 1.3, Resilient: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewZipfWorkload(8, 0.5, 0.9)
	sizeAt := func(round int) int {
		for sys.Round() < round {
			if _, err := sys.Step(gen); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := sys.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	early, late := sizeAt(300), sizeAt(3000)
	if rep := sys.Report(); rep.Admitted < 10_000 || len(rep.Obstructions) > 0 {
		t.Fatalf("not the steady state this test is about: %d admitted, %d obstructions",
			rep.Admitted, len(rep.Obstructions))
	}
	if diff := late - early; diff > early/20 || diff < -early/20 {
		t.Errorf("checkpoint is %d bytes at round 300 and %d at round 3000", early, late)
	}
}

// TestLoadCheckpointRefusesOldVersions loads the checkpoints earlier state
// layouts' daemons wrote (20 boxes, round 3; `vodserve -n 20 -u 2 -seed 7`
// at the commits before coreStateVersion 2, 3 and 4). The policy is no
// migration: each file is refused by name of its version, whatever its
// bytes would decode to under this layout.
func TestLoadCheckpointRefusesOldVersions(t *testing.T) {
	for v := 1; v <= 3; v++ {
		file := fmt.Sprintf("internal/core/testdata/v%d.vodckpt", v)
		want := fmt.Sprintf("checkpoint state version %d, this build reads 4", v)
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadCheckpoint(f)
		f.Close()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadCheckpoint(%s) returned %v, want %q", file, err, want)
		}
	}
}

// TestLoadCheckpointVersion4 restores a checkpoint of the current layout
// (`vodserve -n 20 -u 2 -seed 7`, four demands, round 3) and re-encodes
// it: the bytes must come back identical.
func TestLoadCheckpointVersion4(t *testing.T) {
	want, err := os.ReadFile("internal/core/testdata/v4.vodckpt")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := LoadCheckpoint(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Round() != 3 {
		t.Fatalf("restored round %d, the fixture was written at round 3", sys.Round())
	}
	var got bytes.Buffer
	if err := sys.SaveCheckpoint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded checkpoint differs from the fixture (%d bytes vs %d)", got.Len(), len(want))
	}
}
