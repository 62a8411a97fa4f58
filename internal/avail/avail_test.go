package avail

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAvailabilityFormula(t *testing.T) {
	// λ/(λ+μ) = 0.5 with λ=μ; A = 1 - 0.5^n.
	for n := 1; n <= 5; n++ {
		want := 1 - math.Pow(0.5, float64(n))
		if got := Availability(n, 1, 1); math.Abs(got-want) > 1e-12 {
			t.Errorf("A(n=%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPaperWorkedExampleThreeMembers(t *testing.T) {
	// §6.4.2: three members, 99.9% availability, one-hour lifetime ⇒
	// replacement time at most 1/9 of the lifetime (6m40s).
	repair := RequiredRepairTime(3, 1.0, 0.999) // lifetime 1 hour
	want := 1.0 / 9
	if math.Abs(repair-want) > 1e-9 {
		t.Fatalf("repair = %v hours, want 1/9", repair)
	}
	// And the formula round-trips: with that repair time the troupe
	// achieves exactly 99.9%.
	if a := Availability(3, 1, 1/repair); math.Abs(a-0.999) > 1e-9 {
		t.Fatalf("availability with computed repair = %v", a)
	}
}

func TestPaperWorkedExampleFiveMembers(t *testing.T) {
	// §6.4.2: with five members the replacement time may be ~1/3 of
	// the lifetime (20 minutes for a one-hour lifetime).
	repair := RequiredRepairTime(5, 1.0, 0.999)
	if repair < 0.30 || repair > 0.36 {
		t.Fatalf("repair = %v hours, want ≈1/3", repair)
	}
}

func TestStateProbabilitiesSumToOne(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += StateProbability(n, k, 2, 5)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("n=%d: Σp_k = %v", n, sum)
		}
	}
}

func TestStatePnMatchesAvailability(t *testing.T) {
	for n := 1; n <= 6; n++ {
		pn := StateProbability(n, n, 3, 11)
		if math.Abs((1-pn)-Availability(n, 3, 11)) > 1e-12 {
			t.Errorf("n=%d: 1-p_n != A", n)
		}
	}
}

func TestStateProbabilityOutOfRange(t *testing.T) {
	if StateProbability(3, -1, 1, 1) != 0 || StateProbability(3, 4, 1, 1) != 0 {
		t.Fatal("out-of-range k must have probability 0")
	}
}

func TestSimulationMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// λ = 1 failure/hour, μ = 9 repairs/hour, n = 2: A = 1 - 0.01 = 0.99.
	res := Simulate(2, 1, 9, 200000, rng)
	want := Availability(2, 1, 9)
	if math.Abs(res.Availability-want) > 0.002 {
		t.Fatalf("simulated A = %v, analytic %v", res.Availability, want)
	}
	// State distribution matches binomial.
	for k := 0; k <= 2; k++ {
		want := StateProbability(2, k, 1, 9)
		if math.Abs(res.StateTime[k]-want) > 0.01 {
			t.Errorf("p_%d simulated %v, analytic %v", k, res.StateTime[k], want)
		}
	}
}

func TestSimulationSeesTotalFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res := Simulate(2, 1, 1, 50000, rng)
	if res.TotalFailures == 0 {
		t.Fatal("no total failures with λ=μ over a long run — simulator broken")
	}
}

func TestQuickAvailabilityBounds(t *testing.T) {
	f := func(nRaw uint8, lRaw, mRaw uint16) bool {
		n := int(nRaw%8) + 1
		lambda := float64(lRaw%1000)/100 + 0.01
		mu := float64(mRaw%1000)/100 + 0.01
		a := Availability(n, lambda, mu)
		// 1 − (λ/(λ+μ))^n is below 1, but float64 rounds it to 1 once
		// the power drops under 2⁻⁵³ (n=8, λ=0.02, μ=9.22: 10⁻²²).
		return a > 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMoreReplicasMoreAvailable(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		return Availability(n+1, 1, 5) > Availability(n, 1, 5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRequiredRepairTimeConsistent(t *testing.T) {
	// Availability(n, 1/lifetime, 1/repair) must reproduce A.
	f := func(nRaw uint8, aRaw uint16) bool {
		n := int(nRaw%6) + 1
		a := 0.9 + float64(aRaw%999)/10000 // 0.9 .. 0.9999
		repair := RequiredRepairTime(n, 1.0, a)
		got := Availability(n, 1, 1/repair)
		return math.Abs(got-a) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
