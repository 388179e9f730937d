package cnf

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"alive/internal/sat"
)

// TestStopFlagMidPreprocess flips the stop flag before and at random
// points during Preprocess and asserts the halt is always sound: the
// surviving formula is equisatisfiable with the original, and a model's
// values on the frozen variables extend to a model of the original
// clauses — no matter which pass the flag interrupted.
func TestStopFlagMidPreprocess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for iter := 0; iter < iters; iter++ {
		nvars := 10 + rng.Intn(50)
		clauses := randomClauses(rng, nvars, 2+rng.Intn(4*nvars), 4)
		want := plainSolver(nvars, clauses).Solve()

		f := newFormula(nvars, clauses...)
		frozen := randomFrozen(rng, nvars)
		var flag sat.StopFlag
		var wg sync.WaitGroup
		switch iter % 3 {
		case 0:
			// Pre-tripped: Preprocess must do (almost) nothing.
			flag.Stop()
		case 1:
			// Concurrent flip racing the passes: lands anywhere.
			delay := time.Duration(rng.Intn(60)) * time.Microsecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(delay)
				flag.Stop()
			}()
		case 2:
			// Tiny work budget: halts mid-pass deterministically.
		}
		opts := Options{Stop: &flag}
		if iter%3 == 2 {
			opts.Budget = int64(1 + rng.Intn(200))
		}
		st, units, _ := solveFrozen(f, opts, frozen)
		wg.Wait()

		if st != want {
			t.Fatalf("iter %d: status %v after halted preprocessing, reference %v", iter, st, want)
		}
		if st == sat.Sat {
			checkFrozenModel(t, nvars, clauses, units)
		}
	}
}
