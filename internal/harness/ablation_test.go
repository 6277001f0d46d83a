package harness

import "testing"

// TestAblationCounting: naive all-miss counting must relocate
// communication pages on a producer-consumer workload (em3d), costing
// performance — the justification for Section 3.1's refetch distinction.
func TestAblationCounting(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	res, err := h.AblationCounting("em3d")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraRelocations <= 0 {
		t.Errorf("naive counting caused no extra relocations (%d vs %d); the ablation should fire",
			res.Naive.Relocations, res.RefetchOnly.Relocations)
	}
	if res.SlowdownPct < 1 {
		t.Errorf("naive counting slowdown = %.1f%%; relocating communication pages should cost", res.SlowdownPct)
	}
	// The relocated communication pages keep missing (coherence), so the
	// page cache churns.
	if res.Naive.Replacements < res.RefetchOnly.Replacements {
		t.Errorf("naive counting reduced replacements (%d vs %d)?",
			res.Naive.Replacements, res.RefetchOnly.Replacements)
	}
}

// TestAblationCountingReuseAppUnhurt: on a pure-reuse application, naive
// counting and refetch-only counting behave nearly identically (nearly
// every miss is a refetch anyway) — the distinction only matters where
// coherence misses exist.
func TestAblationCountingReuseAppUnhurt(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	res, err := h.AblationCounting("moldyn")
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowdownPct > 20 {
		t.Errorf("naive counting cost %.1f%% on moldyn; reuse apps should be mostly unaffected", res.SlowdownPct)
	}
}

// TestAblationPlacement: round-robin placement scatters each node's own
// data; remote traffic and execution time climb (Section 2.1's case for
// first-touch).
func TestAblationPlacement(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	// em3d has heavy producer writes to "its own" graph pages: scattering
	// those homes sends every update remote.
	res, err := h.AblationPlacement("em3d")
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowdownPct < 10 {
		t.Errorf("round-robin placement slowdown = %.1f%%; expected substantial", res.SlowdownPct)
	}
	if res.RemoteFetchMultiplier < 1.2 {
		t.Errorf("round-robin remote fetch multiplier = %.2fx; scattering should add remote traffic",
			res.RemoteFetchMultiplier)
	}
}

// TestAblationReplacementPolicy: LRU protects reuse pages from streaming
// traffic on raytrace-like mixes; LRM is the paper's hardware-cheap
// choice. The ablation must run both and report a finite effect.
func TestAblationReplacementPolicy(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	res, err := h.AblationReplacementPolicy("raytrace")
	if err != nil {
		t.Fatal(err)
	}
	if res.LRM.ExecCycles == 0 || res.LRU.ExecCycles == 0 {
		t.Fatal("empty runs")
	}
	// The policies must actually behave differently on this mix.
	if res.LRM.Replacements == res.LRU.Replacements {
		t.Errorf("LRM and LRU produced identical replacement counts (%d); the policy switch is inert",
			res.LRM.Replacements)
	}
	if res.LRUEffectPct < -80 || res.LRUEffectPct > 80 {
		t.Errorf("implausible LRU effect: %.1f%%", res.LRUEffectPct)
	}
}
