package exp

import (
	"sync"

	"ldsprefetch/internal/sim"
)

// fanOut runs f(i) for every i < n concurrently and waits for all of them.
// It is the only place this package starts goroutines: the scheduler bounds
// how many simulations actually execute, so every generator may put its
// whole grid in flight at once.
func fanOut(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// collect is fanOut that keeps f's results, in index order.
func collect[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	fanOut(n, func(i int) { out[i] = f(i) })
	return out
}

// perBench runs f once per benchmark, concurrently, and returns the results
// in benches order.
func perBench[T any](benches []string, f func(i int, bench string) T) []T {
	return collect(len(benches), func(i int) T { return f(i, benches[i]) })
}

// sweep runs benches[i] under every spec variants(i) returns, all of them in
// flight together, and returns res[i][j] for benchmark i and variant j.
func (c *Context) sweep(benches []string, variants func(i int) []sim.Spec) [][]sim.Result {
	return perBench(benches, func(i int, b string) []sim.Result {
		specs := variants(i)
		return collect(len(specs), func(j int) sim.Result { return c.run(b, specs[j]) })
	})
}
