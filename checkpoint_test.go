package vod

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// TestSaveLoadCheckpoint exercises the public envelope: run a workload,
// checkpoint mid-run, restore, and verify the restored system resumes
// bit-identically under the same demand feed. The core-level differential
// (internal/core) pins the heavy state machinery; this test pins the
// envelope — spec round-trip, magic, and generator reattachment — for a
// homogeneous system and for the paper's §4 systems: a relayed bimodal
// fleet and uneven storage.
func TestSaveLoadCheckpoint(t *testing.T) {
	pop := Bimodal(30, 0.7, 3.0, 0.5, 2.0)
	for _, tc := range []struct {
		name string
		spec Spec
		gen  func(seed uint64) Generator
	}{
		{"homogeneous", Spec{Boxes: 30, Upload: 2.0, Growth: 1.3, Resilient: true, Seed: 11},
			func(seed uint64) Generator { return NewZipfWorkload(seed, 0.4, 0.9) }},
		{"relayed", Spec{Boxes: 30, Uploads: pop.Uploads, Storages: pop.Storage, UStar: 1.5, Growth: 1.05,
			Duration: 40, Replicas: 3, Resilient: true, Seed: 7},
			func(uint64) Generator { return NewPoorFirst(1.5) }},
		{"uneven storage", Spec{Boxes: 30, Upload: 2.0, Storages: pop.Storage, Growth: 1.3, Resilient: true, Seed: 5},
			func(seed uint64) Generator { return NewZipfWorkload(seed, 0.4, 0.9) }},
	} {
		live, err := New(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gen := tc.gen(3)
		for r := 0; r < 40; r++ {
			if _, err := live.Step(gen); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if rep := live.Report(); rep.Admitted == 0 || tc.spec.UStar > 0 && rep.RelayedRequests == 0 {
			t.Fatalf("%s: nothing to checkpoint: %d admitted, %d relayed", tc.name, rep.Admitted, rep.RelayedRequests)
		}
		var buf bytes.Buffer
		if err := live.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}

		restored, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if restored.Round() != 40 {
			t.Fatalf("%s: restored at round %d, want 40", tc.name, restored.Round())
		}
		if !reflect.DeepEqual(restored.Spec(), tc.spec) {
			t.Fatalf("%s: spec did not round-trip: %+v vs %+v", tc.name, restored.Spec(), tc.spec)
		}

		// Demand feeds are external inputs: reattach identically seeded
		// generators (the live one has consumed 40 rounds of randomness, so
		// both sides get fresh ones) and compare the continuations.
		genA, genB := tc.gen(99), tc.gen(99)
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
				t.Fatalf("%s: round %d diverged: %+v vs %+v", tc.name, resA.Round, resA, resB)
			}
		}
		if repA, repB := live.Report(), restored.Report(); !reflect.DeepEqual(repA, repB) {
			t.Fatalf("%s: reports diverge after identical continuations", tc.name)
		}
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
// the file has to back, and so is a spec. The 5-byte file is a magic
// length of 2^28 and nothing else, which once made LoadCheckpoint allocate
// 268 MB before it compared the magic; the second file is the right magic
// followed by a spec length of 2^31. The third is the magic and a spec of
// 10⁶ boxes shaped like contended-serial's, and nothing else: 217 bytes on
// which LoadCheckpoint once built the whole system, 178 MB, before it
// found the state missing. The fourth adds the state's head up to its box
// counts, which it does not hold.
func TestLoadCheckpointAllocatesWhatTheFileHolds(t *testing.T) {
	magic := append([]byte{byte(len(checkpointMagic))}, checkpointMagic...)
	specOnly := func(write func(w *ckpt.Writer)) []byte {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		w.Bytes(checkpointMagic)
		specJSON, err := json.Marshal(Spec{Boxes: 1_000_000, Upload: 2.0, Storage: 2, Stripes: 4, Replicas: 4,
			Duration: 50, Growth: 1.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		w.Bytes(specJSON)
		write(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	claimed := specOnly(func(*ckpt.Writer) {})
	if len(claimed) != 217 {
		t.Fatalf("the spec-only file is %d bytes, not 217", len(claimed))
	}
	for _, file := range [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x01},
		append(magic, 0x80, 0x80, 0x80, 0x80, 0x08),
		claimed,
		specOnly(func(w *ckpt.Writer) {
			w.U64(4) // state version
			w.U64(0) // fingerprint
			w.Int(0) // round
			w.Bool(false)
			w.Int(0) // no slots: five empty slot arrays follow
			for range 5 {
				w.U64(0)
			}
			w.I32(0) // the first of 10⁶ box counts
		}),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadCheckpoint(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%d-byte file loaded", len(file))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%d-byte file: LoadCheckpoint allocated %d bytes (%v)", len(file), grew, err)
		}
	}
}

// TestLoadCheckpointLeavesNoGoroutine loads an honest checkpoint and files
// that fail at each stage of a load — the spec, the state's head (before
// the allocation is drawn), the stream's body and the fingerprint (while
// and after it is drawn) — and requires the process to be back at the
// goroutines it had: the load draws the allocation on a goroutine of its
// own, which must not outlive it. (Whether each return waits for that
// goroutine, however long it runs, is TestRestoreWaitsForTheFill's.)
func TestLoadCheckpointLeavesNoGoroutine(t *testing.T) {
	sys, err := New(Spec{Boxes: 30, Upload: 2.0, Growth: 1.3, Resilient: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewZipfWorkload(3, 0.4, 0.9)
	for r := 0; r < 20; r++ {
		if _, err := sys.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	honest := buf.Bytes()
	specJSON, err := json.Marshal(sys.Spec())
	if err != nil {
		t.Fatal(err)
	}
	state := bytes.Index(honest, specJSON) + len(specJSON) // the state follows the spec's JSON
	wrongPrint := bytes.Clone(honest)
	wrongPrint[state+1] ^= 1 // the fingerprint's first byte, after the 1-byte version
	badSpec := bytes.Replace(honest, []byte(`"Boxes":30`), []byte(`"Boxes":-3`), 1)

	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		file []byte
		want string
	}{
		{"honest", honest, ""},
		{"refused spec", badSpec, "Boxes must be positive"},
		{"cut in the head", honest[:state+5], "EOF"},
		{"cut in the body", honest[:len(honest)-3], "EOF"},
		{"wrong fingerprint", wrongPrint, "does not match configuration"},
	} {
		_, err := LoadCheckpoint(bytes.NewReader(tc.file))
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: LoadCheckpoint returned %v, want %q", tc.name, err, tc.want)
		}
		// A goroutine that has handed back its result may take a moment to
		// exit; one still at work would not be gone in a second.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("%s: %d goroutines after the load, %d before", tc.name, now, before)
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
