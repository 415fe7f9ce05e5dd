package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// referenceShrinkingCount is the Bool loop ShrinkingBoolCount replays.
func referenceShrinkingCount(r *Rand, budget int, p float64) int {
	hits := 0
	for i := 0; i < budget-hits; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	return hits
}

// sameShrinkingCount runs the kernel and the reference loop on twin
// generators and reports whether they agree on the count and on every
// piece of generator state afterwards.
func sameShrinkingCount(t *testing.T, seed uint64, budget int, p float64, withSpare bool) bool {
	t.Helper()
	fast, ref := NewRand(seed), NewRand(seed)
	if withSpare {
		// Leave a cached normal variate behind; the kernel must keep it.
		fast.Norm(0, 1)
		ref.Norm(0, 1)
	}
	got, want := fast.ShrinkingBoolCount(budget, p), referenceShrinkingCount(ref, budget, p)
	if got != want {
		t.Errorf("seed %d budget %d p %v: count %d, reference %d", seed, budget, p, got, want)
		return false
	}
	if fast.hasSpare != ref.hasSpare || math.Float64bits(fast.spare) != math.Float64bits(ref.spare) {
		t.Errorf("seed %d budget %d p %v: spare state differs", seed, budget, p)
		return false
	}
	if a, b := fast.Uint64(), ref.Uint64(); a != b {
		t.Errorf("seed %d budget %d p %v: next Uint64 %#x, reference %#x", seed, budget, p, a, b)
		return false
	}
	return true
}

func TestShrinkingBoolCountMatchesBoolLoop(t *testing.T) {
	budgets := []int{-3, 0, 1, 2, 7, 64, 700}
	probs := []float64{0, 1e-12, 1e-4, 0.01, 0.3, 0.999999, 1, 1.5, -0.5, math.NaN(), math.Nextafter(1, 0), 5e-324}
	for seed := uint64(0); seed < 40; seed++ {
		for _, budget := range budgets {
			for _, p := range probs {
				sameShrinkingCount(t, seed*0x9e3779b97f4a7c15+1, budget, p, seed%2 == 1)
			}
		}
	}
}

// At the float boundary a draw hits exactly when Float64() < p; a p one
// ulp either side of a drawn value must land on the matching side.
func TestShrinkingBoolCountThresholdEdges(t *testing.T) {
	for seed := uint64(1); seed < 200; seed++ {
		f := NewRand(seed).Float64()
		for _, p := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 1)} {
			if p <= 0 || p >= 1 {
				continue
			}
			if got, want := NewRand(seed).ShrinkingBoolCount(1, p), referenceShrinkingCount(NewRand(seed), 1, p); got != want {
				t.Fatalf("seed %d p %v (draw %v): count %d, reference %d", seed, p, f, got, want)
			}
		}
	}
}

func TestShrinkingBoolCountProperty(t *testing.T) {
	f := func(seed uint64, budget uint16, pBits uint64, spare bool) bool {
		// Mix uniform probabilities with tiny ones so the rare-hit end of
		// the threshold is exercised too.
		p := float64(pBits>>11) / (1 << 53)
		if pBits&1 == 1 {
			p *= 1e-6
		}
		return sameShrinkingCount(t, seed, int(budget%1024), p, spare)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShrinkingBoolCount(b *testing.B) {
	r := NewRand(1)
	n := 0
	for i := 0; i < b.N; i++ {
		n += r.ShrinkingBoolCount(64, 0.01)
	}
	benchSink = n
}

func BenchmarkShrinkingBoolLoop(b *testing.B) {
	r := NewRand(1)
	n := 0
	for i := 0; i < b.N; i++ {
		n += referenceShrinkingCount(r, 64, 0.01)
	}
	benchSink = n
}

var benchSink int
