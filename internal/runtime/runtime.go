// Package runtime abstracts "a pool of P threads" over two back-ends:
//
//   - simulated threads (internal/des) with deterministic virtual time, used
//     by the benchmark harness so that parallel speedups are measurable and
//     bit-reproducible on any host, including single-core machines; and
//   - real OS goroutines, used by tests (including the race detector) and by
//     the optional wall-clock benchmark mode.
//
// The miner, validator, STM and fork-join layers are written once against
// the Thread interface and run unchanged on either back-end.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"contractstm/internal/des"
	"contractstm/internal/gas"
)

// Thread is one executor in a pool. Exactly one unit of contract execution
// runs on a thread at a time; the STM layer uses Park/Unpark to implement
// blocking abstract-lock acquisition on both back-ends.
type Thread interface {
	// ID returns the worker index within its pool (0-based).
	ID() int
	// Work consumes g units of computational cost: virtual time on the
	// simulated back-end, an optional calibrated spin on the real back-end.
	Work(g gas.Gas)
	// Now returns the thread's notion of elapsed time: virtual clock units
	// (== gas) for simulated threads, nanoseconds since pool start for real
	// threads.
	Now() uint64
	// Park blocks the calling thread until Unpark is called on it. A single
	// pending wake token is retained if Unpark arrives first.
	Park()
	// Unpark wakes target (or leaves it a wake token). The caller must be a
	// thread of the same runner.
	Unpark(target Thread)
}

// Runner executes P worker bodies to completion and reports the makespan.
type Runner interface {
	// Run invokes body once per worker, concurrently, and returns the
	// makespan: the maximum per-thread completion time in the runner's time
	// unit (virtual gas units or nanoseconds).
	Run(workers int, body func(Thread)) (uint64, error)
}

// --- Simulated back-end -----------------------------------------------

// SimThread adapts a des.Thread to the Thread interface.
type SimThread struct {
	inner *des.Thread
}

var _ Thread = (*SimThread)(nil)

// ID implements Thread.
func (t *SimThread) ID() int { return t.inner.ID() }

// Work implements Thread: one gas unit is one unit of virtual time,
// scaled by the simulator's interference model when configured.
func (t *SimThread) Work(g gas.Gas) { t.inner.Work(uint64(g)) }

// Now implements Thread.
func (t *SimThread) Now() uint64 { return t.inner.Now() }

// Park implements Thread.
func (t *SimThread) Park() { t.inner.Park() }

// Unpark implements Thread.
func (t *SimThread) Unpark(target Thread) {
	st, ok := target.(*SimThread)
	if !ok {
		panic(fmt.Sprintf("runtime: SimThread.Unpark on foreign thread %T", target))
	}
	t.inner.Unpark(st.inner)
}

// SimRunner runs workers on a fresh discrete-event simulation per Run call.
type SimRunner struct {
	interferencePerMille int
}

var _ Runner = (*SimRunner)(nil)

// NewSimRunner returns a simulated-time runner with ideal (zero
// interference) cores.
func NewSimRunner() *SimRunner { return &SimRunner{} }

// NewSimRunnerInterference returns a simulated-time runner whose cores
// contend for shared resources: each unit of work costs an extra
// perMille/1000 per additional concurrently active thread (see
// des.Simulator.SetInterference). The benchmark harness uses this to model
// the sub-ideal parallel efficiency of the paper's 4-core JVM testbed.
func NewSimRunnerInterference(perMille int) *SimRunner {
	return &SimRunner{interferencePerMille: perMille}
}

// Run implements Runner. The returned makespan is in virtual time units
// (gas). The error surfaces simulated deadlocks, which indicate a bug in a
// coordination layer above.
func (r *SimRunner) Run(workers int, body func(Thread)) (uint64, error) {
	if workers <= 0 {
		return 0, fmt.Errorf("runtime: Run with %d workers", workers)
	}
	sim := des.New()
	sim.SetInterference(r.interferencePerMille)
	for i := 0; i < workers; i++ {
		sim.Spawn(fmt.Sprintf("worker-%d", i), func(dt *des.Thread) {
			body(&SimThread{inner: dt})
		})
	}
	return sim.Run()
}

// WithStartupWork decorates a runner so every worker performs a fixed
// amount of work before its body runs. The miner and validator use it to
// model thread-pool dispatch latency, which is what makes tiny blocks not
// worth parallelizing (the paper's Figure 1 shows no speedup — even
// slowdown — below roughly 50 transactions). Serial baselines do not pay
// it.
func WithStartupWork(r Runner, cost gas.Gas) Runner {
	if cost == 0 {
		return r
	}
	return &startupRunner{inner: r, cost: cost}
}

type startupRunner struct {
	inner Runner
	cost  gas.Gas
}

var _ Runner = (*startupRunner)(nil)

// Run implements Runner.
func (r *startupRunner) Run(workers int, body func(Thread)) (uint64, error) {
	return r.inner.Run(workers, func(th Thread) {
		th.Work(r.cost)
		body(th)
	})
}

// --- Real OS back-end ---------------------------------------------------

// OSThread is a Thread backed by a plain goroutine.
type OSThread struct {
	id    int
	start time.Time
	park  chan struct{} // buffered(1): carries at most one wake token
	burn  func(gas.Gas)
}

var _ Thread = (*OSThread)(nil)

// ID implements Thread.
func (t *OSThread) ID() int { return t.id }

// Work implements Thread. With a nil burn function it is a no-op, which is
// what correctness tests want (fast, race-detector friendly).
func (t *OSThread) Work(g gas.Gas) {
	if t.burn != nil {
		t.burn(g)
	}
}

// Now implements Thread: nanoseconds since the pool started.
func (t *OSThread) Now() uint64 { return uint64(time.Since(t.start)) }

// Park implements Thread.
func (t *OSThread) Park() { <-t.park }

// Unpark implements Thread. The buffered channel retains one wake token if
// the target has not parked yet; further tokens are dropped, matching
// Park/Unpark (LockSupport) semantics.
func (t *OSThread) Unpark(target Thread) {
	ot, ok := target.(*OSThread)
	if !ok {
		panic(fmt.Sprintf("runtime: OSThread.Unpark on foreign thread %T", target))
	}
	select {
	case ot.park <- struct{}{}:
	default:
	}
}

// SpinBurn returns a Work implementation that spends roughly cost-
// proportional CPU time by hashing. factor scales iterations per gas unit;
// 0 disables burning.
func SpinBurn(factor int) func(gas.Gas) {
	if factor <= 0 {
		return nil
	}
	return func(g gas.Gas) {
		// A small integer mix loop (xorshift64).
		n := int(g) * factor
		var sink uint64 = 0x9e3779b97f4a7c15
		for i := 0; i < n; i++ {
			sink ^= sink << 13
			sink ^= sink >> 7
			sink ^= sink << 17
		}
		// The loop's result must be observable or the compiler deletes the
		// loop. Xorshift from a non-zero seed never reaches zero, so this
		// store never executes and the workers of a pool share no write —
		// but the compiler cannot know that, so the loop stays.
		if sink == 0 {
			spinSink.Store(sink)
		}
	}
}

// spinSink defeats dead-code elimination of SpinBurn loops.
var spinSink atomic.Uint64

// OSRunner runs workers on real goroutines.
type OSRunner struct {
	burn func(gas.Gas)
}

var _ Runner = (*OSRunner)(nil)

// NewOSRunner returns a real-thread runner. burn may be nil (no CPU burning)
// or SpinBurn(k) for wall-clock benchmarking.
func NewOSRunner(burn func(gas.Gas)) *OSRunner { return &OSRunner{burn: burn} }

// Run implements Runner. The makespan is wall-clock nanoseconds from start
// to the last worker's completion.
func (r *OSRunner) Run(workers int, body func(Thread)) (uint64, error) {
	if workers <= 0 {
		return 0, fmt.Errorf("runtime: Run with %d workers", workers)
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		t := &OSThread{id: i, start: start, park: make(chan struct{}, 1), burn: r.burn}
		go func() {
			defer wg.Done()
			body(t)
		}()
	}
	wg.Wait()
	return uint64(time.Since(start)), nil
}
