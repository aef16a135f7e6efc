package exec

import (
	"sync"
	"sync/atomic"
)

// ForEachWorker runs fn(task, worker) for every task in [0, n):
// sequentially on worker 0 when par <= 1 or there is a single task,
// otherwise across min(par, n) workers pulling tasks from a shared
// counter. worker identifies the executing worker (callers index
// per-worker scratch by it). Every task runs exactly once; errs must hold
// at least n entries and receives each task's error by index, so the
// returned error is the lowest-index one — matching sequential error
// behavior regardless of scheduling. It is the one bounded task pool
// behind core.Runtime's fragment fan-out and PartialProgram.Run.
func ForEachWorker(n, par int, errs []error, fn func(task, worker int) error) error {
	if n <= 1 || par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i, 0); err != nil {
				return err
			}
		}
		return nil
	}
	workers := par
	if workers > n {
		workers = n
	}
	errs = errs[:n]
	for i := range errs {
		errs[i] = nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				errs[t] = fn(t, worker)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
