package crypto

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// counted counts how often each task runs and checks w against the
// helpers Fan was given.
type counted struct {
	runs    []atomic.Int32
	helpers int
	badW    *atomic.Int32
}

func (c counted) Task(w, i int) {
	if w < 0 || w > c.helpers {
		c.badW.Add(1)
	}
	c.runs[i].Add(1)
}

// TestFanRunsEveryTaskOnce: every task runs exactly once and Fan
// returns, for task counts around every helper count and with more
// helpers than tasks, so a late helper finds nothing to do.
func TestFanRunsEveryTaskOnce(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(16))
	for helpers := 0; helpers <= 16; helpers++ {
		for n := 0; n <= 40; n++ {
			c := counted{runs: make([]atomic.Int32, n), helpers: helpers, badW: new(atomic.Int32)}
			withinDeadline(t, time.Minute, func() { Fan(c, n, helpers) })
			for i := range c.runs {
				if r := c.runs[i].Load(); r != 1 {
					t.Fatalf("%d tasks, %d helpers: task %d ran %d times", n, helpers, i, r)
				}
			}
			if c.badW.Load() != 0 {
				t.Fatalf("%d tasks, %d helpers: a task ran on a worker outside 0…%d", n, helpers, helpers)
			}
		}
	}
}

// TestFanHelpers: no helper at GOMAXPROCS 1 or for one task, and never
// more than GOMAXPROCS - 1.
func TestFanHelpers(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	if h := Helpers(100); h != 0 {
		t.Fatalf("GOMAXPROCS 1: %d helpers, want 0", h)
	}
	goruntime.GOMAXPROCS(4)
	for n, want := range []int{-1, 0, 1, 2, 3, 3, 3} {
		if h := Helpers(n); h != want {
			t.Fatalf("GOMAXPROCS 4, %d tasks: %d helpers, want %d", n, h, want)
		}
	}
}

// squares is a task type that reaches its results through a slice, as
// a block's commitment tasks do: task i writes i*i into its own slot.
type squares []int

func (s squares) Task(_, i int) { s[i] = i * i }

// TestFanAllocs: with no helpers Fan allocates nothing.
func TestFanAllocs(t *testing.T) {
	s := make(squares, 500)
	if a := testing.AllocsPerRun(20, func() { Fan(s, len(s), 0) }); a != 0 {
		t.Errorf("Fan with no helpers allocates %.0f times, want 0", a)
	}
	if s[499] != 499*499 {
		t.Errorf("task 499 wrote %d, want %d", s[499], 499*499)
	}
}

// withinDeadline runs f and fails the test if f has not returned within
// d: a fan that loses a task leaves its caller waiting for ever, and this
// turns that hang into a failure.
func withinDeadline(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("not done within %v: a fan lost a task", d)
	}
}
