package crypto

import (
	"runtime"
	"sync/atomic"
)

// Tasks is hashing work that Fan shares out. Task(w, i) does task i on
// worker w: worker 0 is Fan's caller, workers 1 … helpers its helper
// goroutines, so a task may use per-worker scratch indexed by w. Each
// task writes only where no other task does.
type Tasks interface {
	Task(w, i int)
}

// Helpers is how many helper goroutines a fan of n tasks is given: one
// fewer than min(GOMAXPROCS, n), so none at GOMAXPROCS 1 or for one task.
func Helpers(n int) int {
	return min(runtime.GOMAXPROCS(0), n) - 1
}

// Fan runs t.Task for every task 0 … n-1 on the caller and helpers more
// goroutines, each taking the next task from one counter, and returns
// once every task has run. Every task is taken by the time the caller
// runs out of them, and the caller waits only for those: a helper that
// starts after the last one was taken finds none and costs nothing. With
// no helpers the tasks run on the caller in order and Fan allocates
// nothing; T is taken by value, so a task type that reaches its results
// through slices stays off the heap on that path.
func Fan[T Tasks](t T, n, helpers int) {
	if helpers < 1 {
		for i := 0; i < n; i++ {
			t.Task(0, i)
		}
		return
	}
	f := &fan[T]{t: t, n: int32(n), done: make(chan struct{}, n)}
	for w := 1; w <= helpers; w++ {
		go f.take(w)
	}
	f.take(0)
	for ; n > 0; n-- { // the caller's own tasks report on done too
		<-f.done
	}
}

// fan is one Fan's shared state. n is never written once a helper runs,
// so a helper can read it whatever the caller is doing.
type fan[T Tasks] struct {
	t    T
	n    int32
	next atomic.Int32
	done chan struct{}
}

// take runs tasks on worker w until none is left.
func (f *fan[T]) take(w int) {
	for i := f.next.Add(1) - 1; i < f.n; i = f.next.Add(1) - 1 {
		f.t.Task(w, int(i))
		f.done <- struct{}{}
	}
}
