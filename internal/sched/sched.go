// Package sched implements the coroutine-based, event-driven scheduler of
// the Slash executor (§5.3). Each worker thread owns a private run queue of
// cooperative tasks and interleaves RDMA tasks (polling channels) with
// compute tasks (processing polled buffers). A task that reports no work is
// parked with exponential back-off so empty RDMA channels never stall
// pending compute tasks; a task that made progress is stepped again soon.
//
// Go has no first-class coroutines; tasks are explicit state machines with a
// Step contract, which gives the same fine-grained interleaving (and ~ns
// "context switches") that the paper gets from coroutine libraries, without
// per-record goroutine switches or cross-thread queue synchronization.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Status is the result of stepping a task once.
type Status int

// Task step outcomes.
const (
	// Ready means the task made progress and wants to be stepped again.
	Ready Status = iota
	// Idle means the task found no work (e.g. an empty RDMA channel); the
	// worker parks it briefly and runs other tasks.
	Idle
	// Done means the task finished and leaves the run queue.
	Done
)

// Task is a cooperative unit of work. Step must not block: it performs a
// bounded amount of work and reports its status.
type Task interface {
	// Name identifies the task for diagnostics.
	Name() string
	// Step advances the task.
	Step() Status
}

// TaskFunc adapts a function to the Task interface.
type TaskFunc struct {
	TaskName string
	Fn       func() Status
}

// Name implements Task.
func (t TaskFunc) Name() string { return t.TaskName }

// Step implements Task.
func (t TaskFunc) Step() Status { return t.Fn() }

// WorkerStats counts scheduling activity for the drill-down analysis.
type WorkerStats struct {
	// Steps is the number of task steps executed.
	Steps uint64
	// ReadySteps is the number of steps that reported progress.
	ReadySteps uint64
	// IdleRounds is the number of full passes in which no task had work.
	IdleRounds uint64
}

// Worker runs a private queue of tasks on one goroutine ("thread" in the
// paper's pinned-core deployment).
type Worker struct {
	id    int
	tasks []Task

	mu      sync.Mutex
	pending []Task // tasks added while running

	steps      atomic.Uint64
	readySteps atomic.Uint64
	idleRounds atomic.Uint64
	stopped    atomic.Bool
}

// ID returns the worker index within its pool.
func (w *Worker) ID() int { return w.id }

// Add queues a task on this worker. Safe to call before or during Run.
func (w *Worker) Add(t Task) {
	w.mu.Lock()
	w.pending = append(w.pending, t)
	w.mu.Unlock()
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Steps:      w.steps.Load(),
		ReadySteps: w.readySteps.Load(),
		IdleRounds: w.idleRounds.Load(),
	}
}

// run executes the worker loop until every task is Done or the pool stops.
func (w *Worker) run() {
	idleStreak := 0
	for !w.stopped.Load() {
		w.mu.Lock()
		if len(w.pending) > 0 {
			w.tasks = append(w.tasks, w.pending...)
			w.pending = w.pending[:0]
		}
		w.mu.Unlock()
		if len(w.tasks) == 0 {
			w.mu.Lock()
			empty := len(w.pending) == 0
			w.mu.Unlock()
			if empty {
				return
			}
			continue
		}
		progressed := false
		kept := w.tasks[:0]
		for _, t := range w.tasks {
			st := t.Step()
			w.steps.Add(1)
			switch st {
			case Ready:
				w.readySteps.Add(1)
				progressed = true
				kept = append(kept, t)
			case Idle:
				kept = append(kept, t)
			case Done:
				// dropped
			default:
				panic(fmt.Sprintf("sched: task %q returned invalid status %d", t.Name(), st))
			}
		}
		w.tasks = kept
		if progressed {
			idleStreak = 0
			continue
		}
		// Every task is parked: yield the core, escalating to sleeps under a
		// sustained idle streak. This is the scheduler parking the RDMA
		// coroutines (§5.3) — without it, polling workers would burn the
		// cycles the paper's drill-down attributes to pause-instruction
		// loops and starve compute workers on small hosts. The ladder asks
		// for 5–200 µs, but on Linux every step sleeps about a millisecond:
		// the runtime's netpoller waits in whole milliseconds and rounds any
		// shorter timer up to 1 ms (runtime/netpoll_epoll.go). With go1.24
		// on a 2-vCPU host, sleeps of 5, 50 and 200 µs in an otherwise idle
		// process took a median of 1.04, 1.08 and 1.09 ms.
		w.idleRounds.Add(1)
		idleStreak++
		if idleStreak < 16 {
			runtime.Gosched()
		} else {
			d := time.Duration(idleStreak-15) * 5 * time.Microsecond
			if d > 200*time.Microsecond {
				d = 200 * time.Microsecond
			}
			time.Sleep(d)
		}
	}
}

// Pool is a set of workers, one goroutine each. Pools grow while running —
// an elastic deployment (§7.2, §8) adds workers for joining executors with
// AddWorker — so completion is tracked with a condition-variable count
// rather than a WaitGroup (whose reuse after reaching zero is unsafe).
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*Worker
	running int
	started bool
}

// NewPool creates a pool with n workers. n may be zero: an elastic
// controller can start empty and add workers as nodes join.
func NewPool(n int) *Pool {
	if n < 0 {
		panic("sched: negative worker count")
	}
	p := &Pool{workers: make([]*Worker, n)}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.workers {
		p.workers[i] = &Worker{id: i}
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Worker returns worker i.
func (p *Pool) Worker(i int) *Worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers[i]
}

// launch starts one worker goroutine. Callers must hold p.mu.
func (p *Pool) launch(w *Worker) {
	p.running++
	go func() {
		w.run()
		p.mu.Lock()
		p.running--
		if p.running == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}()
}

// Start launches every worker and returns immediately. Use Wait to block
// for completion; Run combines the two for static deployments.
func (p *Pool) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		panic("sched: pool already started")
	}
	p.started = true
	for _, w := range p.workers {
		p.launch(w)
	}
	// Wake waiters blocked on "not started" (they re-sleep while workers
	// run); also covers starting an empty pool, which is immediately drained.
	p.cond.Broadcast()
}

// AddWorker appends a worker carrying the given tasks and, if the pool is
// running, launches it immediately — how a joining executor's threads enter
// a live deployment. Tasks are enqueued before the worker goroutine starts,
// so the worker cannot observe an empty queue and exit before its work
// arrives. Adding a worker to a drained-but-unfinished pool races Wait;
// callers add workers while some existing worker still runs.
func (p *Pool) AddWorker(tasks ...Task) *Worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &Worker{id: len(p.workers)}
	w.pending = append(w.pending, tasks...)
	p.workers = append(p.workers, w)
	if p.started {
		p.launch(w)
	}
	return w
}

// Wait blocks until the pool was started and every launched worker drained
// its queue and exited.
func (p *Pool) Wait() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.started || p.running > 0 {
		p.cond.Wait()
	}
}

// Run starts every worker and blocks until all of them drain their queues.
func (p *Pool) Run() {
	p.Start()
	p.Wait()
}

// Stop asks every worker to exit after its current pass.
func (p *Pool) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		w.stopped.Store(true)
	}
}

// Stats aggregates worker stats.
func (p *Pool) Stats() WorkerStats {
	p.mu.Lock()
	workers := append([]*Worker(nil), p.workers...)
	p.mu.Unlock()
	var s WorkerStats
	for _, w := range workers {
		ws := w.Stats()
		s.Steps += ws.Steps
		s.ReadySteps += ws.ReadySteps
		s.IdleRounds += ws.IdleRounds
	}
	return s
}
