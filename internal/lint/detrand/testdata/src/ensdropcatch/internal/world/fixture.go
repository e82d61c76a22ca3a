// Positive fixture: this package path ends in internal/world, so the
// determinism rules apply.
package world

import (
	"math/rand"
	"time"
)

func wallClock() int64 {
	t := time.Now()               // want "time.Now in deterministic package"
	_ = time.Since(t)             // want "time.Since in deterministic package"
	return time.Unix(0, 0).Unix() // constructing times from data is fine
}

func globalRand() {
	_ = rand.Intn(10)      // want "global rand.Intn"
	_ = rand.Float64()     // want "global rand.Float64"
	rand.Shuffle(3, swap)  // want "global rand.Shuffle"
	_ = rand.Perm(4)       // want "global rand.Perm"
	_ = rand.Int63()       // want "global rand.Int63"
	_ = rand.NormFloat64() // want "global rand.NormFloat64"
}

func swap(i, j int) {}

func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // seeded constructors are allowed
	z := rand.NewZipf(rng, 2, 20, 99)     // explicit source threaded through
	_ = z.Uint64()
	_ = rng.Intn(10) // methods on a seeded *rand.Rand are allowed
	return rng.Float64()
}
