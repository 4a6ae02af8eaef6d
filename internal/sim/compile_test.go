package sim

import (
	"math/rand"
	"testing"
)

func TestPrepareNilPlanSharesBase(t *testing.T) {
	p := racyProgram()
	a, err := Prepare(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("nil-plan Prepare should return the shared base compilation")
	}
	// A plan that is non-empty but only names unknown methods is inert.
	c, err := Prepare(p, Plan{"NoSuchMethod": {DelayStart: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("plan naming only unknown methods should be inert")
	}
}

func TestPrepareMemoizesPlanIdentity(t *testing.T) {
	p := racyProgram()
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}}}
	a, err := Prepare(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same plan value should hit the memo")
	}
	other := Plan{"Worker": {GlobalLocks: []string{"inj"}}}
	c, err := Prepare(p, other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct plan maps must not alias through the memo")
	}
}

func TestFastRngAvailable(t *testing.T) {
	// The algebraic re-seeding must verify against math/rand on every
	// supported runtime; if this fails the engine silently falls back
	// to the (correct but ~10µs-per-seed) stock source, which is worth
	// noticing in CI.
	if !fastRngOK {
		t.Fatal("fastSource failed verification against math/rand; replay seeding is on the slow fallback")
	}
}

// TestFastSourceStream checks the reconstructed source against
// math/rand, including the memoized-seed path (the second Seed of the
// same value restores the cached vector) and negative/huge seeds.
func TestFastSourceStream(t *testing.T) {
	if !fastRngOK {
		t.Skip("fast source unavailable on this runtime")
	}
	var fs fastSource
	seeds := []int64{3, 3, 12345, -98765, 3, 1 << 50, 12345}
	for _, seed := range seeds {
		fs.Seed(seed)
		want := rand.NewSource(seed)
		for i := 0; i < 700; i++ {
			if got, w := fs.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d draw %d: fast %d, stdlib %d", seed, i, got, w)
			}
		}
	}
	// Through rand.Rand, as the scheduler consumes it.
	fr := rand.New(&fs)
	fs.Seed(777)
	wr := rand.New(rand.NewSource(777))
	for i := 0; i < 100; i++ {
		if got, w := fr.Intn(7), wr.Intn(7); got != w {
			t.Fatalf("Intn draw %d: fast %d, stdlib %d", i, got, w)
		}
	}
}
