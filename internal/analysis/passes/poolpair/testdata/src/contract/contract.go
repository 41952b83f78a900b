// Package contract is a poolpair fixture for the execution environment
// pool: the environment a call runs in goes back to its pool on every
// path, a contract throw included.
package contract

import "sync"

// Env is the pooled per-call environment.
type Env struct{ depth int }

var envPool = sync.Pool{New: func() any { return new(Env) }}

func invoke(env *Env) bool { return env.depth > 0 }

// Execute puts the environment back from the deferred recover, which
// runs on the normal return and on a throw alike.
func Execute() (ok bool) {
	env := envPool.Get().(*Env)
	defer func() {
		recover()
		*env = Env{}
		envPool.Put(env)
	}()
	return invoke(env)
}

// ExecuteLeak returns early on a failed precondition and loses the
// environment on that path.
func ExecuteLeak(depth int) bool {
	env := envPool.Get().(*Env) // want `pooled object env is not released on every path`
	if depth > 128 {
		return false
	}
	env.depth = depth
	envPool.Put(env)
	return true
}
