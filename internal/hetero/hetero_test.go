package hetero

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestHomogeneousProfile(t *testing.T) {
	p := Homogeneous(10, 1.5, 4)
	if p.N() != 10 || p.AvgUpload() != 1.5 || p.AvgStorage() != 4 {
		t.Fatalf("profile wrong: %+v", p)
	}
}

func TestBimodalProfile(t *testing.T) {
	p := Bimodal(10, 0.3, 3.0, 0.5, 2.0)
	rich, poor := 0, 0
	for i, u := range p.Uploads {
		switch u {
		case 3.0:
			rich++
		case 0.5:
			poor++
		default:
			t.Fatalf("unexpected upload %v", u)
		}
		if math.Abs(p.Storage[i]-2*u) > 1e-12 {
			t.Fatalf("storage not proportional at %d", i)
		}
	}
	if rich != 3 || poor != 7 {
		t.Fatalf("rich=%d poor=%d", rich, poor)
	}
}

func TestDSLMix(t *testing.T) {
	rng := stats.NewRNG(3)
	tiers := map[float64]float64{0.5: 0.5, 1.0: 0.3, 4.0: 0.2}
	p := DSLMix(rng, 1000, tiers, 2)
	counts := map[float64]int{}
	for _, u := range p.Uploads {
		counts[u]++
	}
	if len(counts) != 3 {
		t.Fatalf("tiers seen: %v", counts)
	}
	if f := float64(counts[0.5]) / 1000; math.Abs(f-0.5) > 0.06 {
		t.Errorf("tier 0.5 frequency %v", f)
	}
}

func TestPeerAssistedServer(t *testing.T) {
	p := PeerAssistedServer(5, 100, 50, 0, 0)
	if p.Uploads[0] != 100 || p.Storage[0] != 50 {
		t.Fatal("server capacities wrong")
	}
	for i := 1; i < 5; i++ {
		if p.Uploads[i] != 0 || p.Storage[i] != 0 {
			t.Fatal("client capacities wrong")
		}
	}
}

func TestCompensateSimple(t *testing.T) {
	// One poor box (0.5) needing u*+1−2·0.5 = 1.5; one rich box with
	// spare 3−1.5 = 1.5: exactly feasible.
	relays, err := Compensate([]float64{0.5, 3.0}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if relays[0] != 1 || relays[1] != core.NoRelay {
		t.Fatalf("relays = %v", relays)
	}
}

func TestCompensateInfeasible(t *testing.T) {
	if _, err := Compensate([]float64{0.5, 1.6}, 1.5); err == nil {
		t.Fatal("under-provisioned system should fail")
	}
	if _, err := Compensate([]float64{0.5, 0.6}, 1.5); err == nil {
		t.Fatal("all-poor system should fail")
	}
	if _, err := Compensate([]float64{2, 2}, 1.0); err == nil {
		t.Fatal("u* ≤ 1 should fail")
	}
}

func TestCompensateNoPoor(t *testing.T) {
	relays, err := Compensate([]float64{2, 3}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range relays {
		if r != core.NoRelay {
			t.Fatal("rich boxes must have no relay")
		}
	}
}

func TestCompensateTiesGoToLowestBox(t *testing.T) {
	// Four rich boxes with equal spare 1.5 and two poor boxes needing 1.5
	// each: best fit ties, and the lowest rich box wins each tie, so the
	// same fleet always gets the same relays.
	us := []float64{3, 3, 3, 3, 0.5, 0.5}
	want := []int{core.NoRelay, core.NoRelay, core.NoRelay, core.NoRelay, 0, 1}
	for i := 0; i < 10; i++ {
		relays, err := Compensate(us, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(relays, want) {
			t.Fatalf("call %d: relays %v, want %v", i, relays, want)
		}
	}
}

func TestCompensateRespectsCapacity(t *testing.T) {
	// 4 poor boxes at 0.5 (need 1.5 each); 2 rich at 4.5 (spare 3 each):
	// exactly 2 per relay.
	us := []float64{0.5, 0.5, 0.5, 0.5, 4.5, 4.5}
	relays, err := Compensate(us, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	load := map[int]float64{}
	for b, r := range relays {
		if us[b] < 1.5 {
			if r == core.NoRelay {
				t.Fatalf("poor box %d unassigned", b)
			}
			load[r] += 1.5
		}
	}
	for a, l := range load {
		if l > us[a]-1.5+1e-9 {
			t.Fatalf("relay %d overloaded: %v reserved", a, l)
		}
	}
	rl := SummarizeRelays(us, relays, 1.5)
	if rl.PoorBoxes != 4 || rl.RichBoxes != 2 || rl.Relays != 2 || rl.MaxPerRelay != 2 {
		t.Fatalf("summary: %+v", rl)
	}
	if math.Abs(rl.TotalReserved-6) > 1e-9 {
		t.Fatalf("total reserved %v, want 6", rl.TotalReserved)
	}
}

func TestAllocationSlots(t *testing.T) {
	storage := []float64{1, 6, 6}
	slots, m, err := AllocationSlots(storage, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Total 52 slots; m = 52/8 = 6; 48 slots used; trim 4.
	if m != 6 {
		t.Fatalf("m = %d, want 6", m)
	}
	total := 0
	for _, s := range slots {
		total += s
	}
	if total != 48 {
		t.Fatalf("slot total = %d, want 48", total)
	}
	// No slot count went negative; small box untouched.
	if slots[0] != 4 {
		t.Errorf("small box trimmed: %d", slots[0])
	}
	if _, _, err := AllocationSlots([]float64{0.1}, 4, 2); err == nil {
		t.Error("tiny storage should fail")
	}
	if _, _, err := AllocationSlots([]float64{-1}, 4, 2); err == nil {
		t.Error("negative storage should fail")
	}
	if _, _, err := AllocationSlots([]float64{4}, 0, 2); err == nil {
		t.Error("c=0 should fail")
	}
}

func TestEffectiveStorageBalance(t *testing.T) {
	p := Bimodal(10, 0.5, 3.0, 1.0, 2.0)
	// Proportional with ratio 2 and d/u* = 4/1.5 ≈ 2.67 ≥ 2: balanced.
	if !p.EffectiveStorageBalance(1.5, 1.1) {
		t.Error("proportional population should be balanced")
	}
}

// Property: Compensate never overloads a relay and never leaves a poor
// box unassigned when it succeeds.
func TestQuickCompensateSound(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw%20) + 2
		uStar := 1.2 + rng.Float64()
		us := make([]float64, n)
		for i := range us {
			if rng.Bool(0.4) {
				us[i] = rng.Float64() * uStar // poor
			} else {
				us[i] = uStar + rng.Float64()*6 // rich
			}
		}
		relays, err := Compensate(us, uStar)
		if err != nil {
			return true // infeasible is a legal outcome
		}
		load := make([]float64, n)
		for b, r := range relays {
			if us[b] < uStar {
				if r == core.NoRelay || us[r] < uStar {
					return false
				}
				load[r] += uStar + 1 - 2*us[b]
			} else if r != core.NoRelay {
				return false
			}
		}
		for a, l := range load {
			if l > 0 && us[a] < uStar+l-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: AllocationSlots conserves totals and never exceeds a box's
// storage.
func TestQuickAllocationSlots(t *testing.T) {
	f := func(seed uint64, nRaw, cRaw, kRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw%12) + 1
		c := int(cRaw%8) + 1
		k := int(kRaw%4) + 1
		storage := make([]float64, n)
		for i := range storage {
			storage[i] = 1 + rng.Float64()*8
		}
		slots, m, err := AllocationSlots(storage, c, k)
		if err != nil {
			return true
		}
		total := 0
		for b, s := range slots {
			if s < 0 || float64(s) > storage[b]*float64(c)+1e-6 {
				return false
			}
			total += s
		}
		return total == m*k*c && m >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
