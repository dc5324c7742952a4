package experiments

import (
	"runtime"
	"sync"
)

// Pool is a bounded worker pool: a fixed number of goroutines draining an
// unbounded FIFO task queue. It backs every fan-out in this package via
// ForEachIndexed and is reused by long-lived consumers (the placement
// service's async job queue in internal/server) so the process has one
// concurrency mechanism instead of ad hoc goroutines.
//
// Submit never blocks on busy workers, so producers (e.g. HTTP handlers)
// stay responsive while tasks queue up behind the worker bound.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	closed  bool
	workers int
	done    sync.WaitGroup // worker goroutines
	tasks   sync.WaitGroup // submitted tasks not yet finished
}

// NewPool starts a pool of the given number of workers; 0 or negative
// selects one per available CPU.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.done.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.done.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		task()
		p.tasks.Done()
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues a task and returns immediately; it reports false (and
// drops the task) when the pool is closed.
func (p *Pool) Submit(task func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.tasks.Add(1)
	p.queue = append(p.queue, task)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// Wait blocks until every task submitted so far has finished.
func (p *Pool) Wait() { p.tasks.Wait() }

// Close stops accepting tasks, drains the queue and waits for all workers
// to exit. It is safe to call once all producers are done.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.done.Wait()
}

// ForEachIndexed runs fn(i) for every i in [0, n), fanning the calls
// across a fresh Pool of at most workers goroutines; workers <= 0 selects
// one per available CPU, the same rule as NewPool. Each fn writes its
// result into slot i of caller-owned storage, so merged output is
// independent of scheduling; on failure the error with the lowest index is
// returned, making failures as deterministic as successes regardless of
// worker count.
//
// Every call gets its own pool, so a fan-out may run inside a task of
// another pool. Riding a shared pool instead would block the calling
// worker until its units finish, which deadlocks at one worker.
func ForEachIndexed(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	p := NewPool(workers)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		p.Submit(func() { errs[i] = fn(i) })
	}
	p.Close() // runs the whole queue before returning
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
