// Package des implements a deterministic discrete-event simulator of a small
// multiprocessor: a set of cooperative threads, each with its own virtual
// clock, scheduled one at a time in virtual-time order.
//
// Why this exists: the paper evaluates wall-clock speedups of a 3-thread pool
// on a 4-core Xeon. This reproduction must run on hosts with any number of
// physical cores (including one), so the benchmark harness executes the
// *identical* miner/validator code on simulated threads whose clocks advance
// by gas-proportional amounts. The simulation is single-threaded and fully
// deterministic: scheduling order is a pure function of (virtual time, thread
// id), so every experiment regenerates bit-identical results.
//
// Model:
//
//   - Each Thread runs on its own goroutine, but the simulator guarantees at
//     most one thread executes at any instant; all others are blocked in the
//     scheduler handshake. Shared state touched only by threads therefore
//     needs no locking in simulated runs (the same code paths remain safe
//     under real OS threads because they use ordinary mutexes).
//   - Advance(d) adds d to the calling thread's clock and yields; the
//     scheduler then resumes the runnable thread with the smallest clock
//     (ties broken by thread id).
//   - Park blocks the calling thread until some other thread calls Unpark on
//     it. Unpark advances the target's clock to the waker's clock if it lags
//     (you cannot be woken before the wake event happens).
//
// The package is intentionally minimal: pools, locks and fork-join layers are
// built on top of it in internal/runtime, internal/stm and internal/forkjoin.
package des

import (
	"errors"
	"fmt"
	"sort"
)

// state of a simulated thread.
type threadState int

const (
	stateRunnable threadState = iota + 1
	stateRunning
	stateParked
	stateDone
)

// ErrAllParked is returned by Run when every live thread is parked: a
// simulated deadlock. The STM layer's own deadlock detection should make
// this unreachable; seeing it indicates a bug in a layer above.
var ErrAllParked = errors.New("des: all live threads are parked (simulated deadlock)")

// Thread is a simulated thread of execution. All methods except Unpark must
// be called from the thread's own body function; Unpark may be called by any
// currently-running simulated thread.
type Thread struct {
	sim   *Simulator
	id    int
	name  string
	clock uint64
	state threadState
	// wakeToken records an Unpark that arrived while the thread was not
	// parked, so the next Park returns immediately (LockSupport semantics).
	wakeToken bool
	// resume is the scheduler -> thread handoff channel.
	resume chan struct{}
	body   func(*Thread)
}

// ID returns the thread's unique id (creation order, starting at 0).
func (t *Thread) ID() int { return t.id }

// Now returns the thread's current virtual clock.
func (t *Thread) Now() uint64 { return t.clock }

// Advance adds d units to the thread's virtual clock and yields to the
// scheduler, allowing lower-clock threads to run first.
func (t *Thread) Advance(d uint64) {
	t.clock += d
	t.state = stateRunnable
	t.yield()
}

// Work advances the clock by d scaled by the simulator's interference
// model: with k concurrently active threads (running or runnable — i.e.
// occupying a simulated core) and interference i per mille, the effective
// cost is d·(1 + i·(k-1)/1000). This models shared-resource contention
// (memory bandwidth, caches) that keeps real multiprocessors below ideal
// speedup; see Simulator.SetInterference. With interference 0 (the
// default) Work is identical to Advance.
func (t *Thread) Work(d uint64) {
	if im := t.sim.interferencePerMille; im > 0 {
		if k := t.sim.activeCount(); k > 1 {
			d += d * uint64(im) * uint64(k-1) / 1000
		}
	}
	t.Advance(d)
}

// Yield cedes the processor without advancing the clock. Other runnable
// threads at the same or earlier virtual time get to run.
func (t *Thread) Yield() {
	t.state = stateRunnable
	t.yield()
}

// Park blocks the calling thread until another thread Unparks it. If an
// Unpark already arrived since the last Park, it returns immediately,
// consuming the token.
func (t *Thread) Park() {
	if t.wakeToken {
		t.wakeToken = false
		return
	}
	t.state = stateParked
	t.yield()
}

// Unpark makes target runnable again (or stores a wake token if it is not
// parked). The target's clock is advanced to the caller's clock if behind:
// a thread cannot observe a wake before the wake happened.
func (t *Thread) Unpark(target *Thread) {
	if target.state == stateParked {
		if target.clock < t.clock {
			target.clock = t.clock
		}
		target.state = stateRunnable
		return
	}
	if target.state == stateDone {
		return
	}
	target.wakeToken = true
	// If the token races ahead of a Park the target will consume it; its
	// clock is already >= ours or will advance naturally before parking.
	if target.clock < t.clock {
		target.clock = t.clock
	}
}

// Spawn creates a new thread from within a running thread. The child starts
// at the parent's current clock.
func (t *Thread) Spawn(name string, body func(*Thread)) *Thread {
	return t.sim.spawn(name, t.clock, body)
}

// yield transfers control back to the scheduler and blocks until resumed.
func (t *Thread) yield() {
	t.sim.back <- struct{}{}
	<-t.resume
}

// Simulator owns a set of simulated threads and runs them to completion in
// deterministic virtual-time order. The zero value is not usable; call New.
type Simulator struct {
	threads []*Thread
	// back is the thread -> scheduler handoff channel (exactly one thread
	// can be running, so one channel suffices).
	back chan struct{}
	// started reports whether Run has begun (spawns then start immediately).
	started bool
	// makespan is the maximum clock observed across threads.
	makespan uint64
	// interferencePerMille scales Work costs by concurrently active
	// threads; see Thread.Work.
	interferencePerMille int
}

// New returns an empty simulator.
func New() *Simulator {
	return &Simulator{back: make(chan struct{})}
}

// Spawn registers a new thread before Run is called. The thread starts at
// virtual time 0.
func (s *Simulator) Spawn(name string, body func(*Thread)) *Thread {
	return s.spawn(name, 0, body)
}

func (s *Simulator) spawn(name string, startClock uint64, body func(*Thread)) *Thread {
	t := &Thread{
		sim:    s,
		id:     len(s.threads),
		name:   name,
		clock:  startClock,
		state:  stateRunnable,
		resume: make(chan struct{}),
		body:   body,
	}
	s.threads = append(s.threads, t)
	go func() {
		<-t.resume
		// The deferred completion signal also fires on runtime.Goexit
		// (e.g. t.FailNow inside a test body), so a vanishing thread fails
		// the test instead of deadlocking the scheduler.
		defer func() {
			t.state = stateDone
			s.back <- struct{}{}
		}()
		t.body(t)
	}()
	return t
}

// Run executes all threads to completion and returns the makespan: the
// maximum virtual clock reached by any thread. It returns ErrAllParked if
// the simulation deadlocks (some threads parked, none runnable).
func (s *Simulator) Run() (uint64, error) {
	if s.started {
		return 0, errors.New("des: Run called twice")
	}
	s.started = true
	for {
		next := s.pickRunnable()
		if next == nil {
			if s.liveCount() > 0 {
				return 0, fmt.Errorf("%w: %s", ErrAllParked, s.parkedNames())
			}
			return s.makespan, nil
		}
		next.state = stateRunning
		next.resume <- struct{}{}
		<-s.back
		if next.clock > s.makespan {
			s.makespan = next.clock
		}
	}
}

// pickRunnable returns the runnable thread with the smallest (clock, id),
// or nil when none is runnable.
func (s *Simulator) pickRunnable() *Thread {
	var best *Thread
	for _, t := range s.threads {
		if t.state != stateRunnable {
			continue
		}
		if best == nil || t.clock < best.clock || (t.clock == best.clock && t.id < best.id) {
			best = t
		}
	}
	return best
}

func (s *Simulator) liveCount() int {
	n := 0
	for _, t := range s.threads {
		if t.state != stateDone {
			n++
		}
	}
	return n
}

func (s *Simulator) parkedNames() string {
	var names []string
	for _, t := range s.threads {
		if t.state == stateParked {
			names = append(names, fmt.Sprintf("%s(id=%d,clock=%d)", t.name, t.id, t.clock))
		}
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// SetInterference configures the per-mille cost increase per additional
// concurrently active thread applied by Thread.Work. For example, 150
// means three active threads run each unit of work at 1.30x cost —
// roughly the parallel efficiency the paper's JVM prototype exhibits.
func (s *Simulator) SetInterference(perMille int) {
	if perMille < 0 {
		perMille = 0
	}
	s.interferencePerMille = perMille
}

// activeCount returns how many threads currently occupy a simulated core
// (running or runnable); parked and finished threads are excluded.
func (s *Simulator) activeCount() int {
	n := 0
	for _, t := range s.threads {
		if t.state == stateRunnable || t.state == stateRunning {
			n++
		}
	}
	return n
}
