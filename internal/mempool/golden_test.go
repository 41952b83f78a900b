package mempool

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// The selection vectors under testdata/selection are frozen: they
// record the blocks the single-lock txpool.Pool picked before it was
// deleted, and this pool picked the same on every line. Each file
// holds call tables ("pool" then "call" lines) and runs over them. A
// run is one fresh pool and a script of operations:
//
//	submit A B          SubmitTrusted calls A..B-1, in order
//	select N -> I J …   SelectBatch(policy, N) returns calls I, J, …
//	select N -> empty   SelectBatch(policy, N) returns txpool.ErrEmpty
//	commit              the oldest in-flight selection is mined: its
//	                    feedback (feedbackOf) is reported to the pool
//	abort K             RequeueBatch of the K-th oldest in-flight selection
//	retried I J …       ReportConflicts of calls I, J, …
//	pair I J            ReportConflictPairs of the pair (I, J)
//
// A "call" line names the contract, the sender, the function and the
// address arguments, each address by its index in the table's address
// space: selection reads nothing else of a call. The replayed call's
// GasLimit is its table index, so a selected call names itself.
// Nothing in a run comes from an engine, so no engine change can move
// these vectors; every run stays under maxConflictEntries, so they pin
// selection, not the score cap's eviction order.

// goldenRun is one scripted run over a call table.
type goldenRun struct {
	name   string
	policy txpool.Policy
	calls  []contract.Call
	// ops are the script lines, verbatim; selects carry their answers.
	ops []string
}

func goldenAddr(field string) (types.Address, error) {
	n, err := strconv.ParseUint(field, 10, 64)
	return types.AddressFromUint64(n + 1), err
}

// readGoldenRuns parses every file under testdata/selection.
func readGoldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "selection", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no selection vectors: %v", err)
	}
	var runs []goldenRun
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		var table []contract.Call
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			line := sc.Text()
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			fail := func(err error) {
				t.Helper()
				t.Fatalf("%s:%d: %q: %v", file, ln, line, err)
			}
			switch fields[0] {
			case "pool":
				table = nil
			case "call":
				if len(fields) < 4 {
					fail(fmt.Errorf("short call"))
				}
				c := contract.Call{Function: fields[3], GasLimit: gas.Gas(len(table))}
				if c.Contract, err = goldenAddr(fields[1]); err != nil {
					fail(err)
				}
				if c.Sender, err = goldenAddr(fields[2]); err != nil {
					fail(err)
				}
				for _, fa := range fields[4:] {
					a, err := goldenAddr(fa)
					if err != nil {
						fail(err)
					}
					c.Args = append(c.Args, a)
				}
				table = append(table, c)
			case "run":
				if len(fields) != 3 {
					fail(fmt.Errorf("want run NAME POLICY"))
				}
				policy, err := txpool.ParsePolicy(fields[2])
				if err != nil {
					fail(err)
				}
				runs = append(runs, goldenRun{
					name: filepath.Base(file) + "/" + fields[1], policy: policy, calls: table,
				})
			default:
				if len(runs) == 0 {
					fail(fmt.Errorf("operation outside a run"))
				}
				r := &runs[len(runs)-1]
				r.ops = append(r.ops, strings.Join(fields, " "))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return runs
}

// feedbackOf is the fixed conflict rule a "commit" applies to a block:
// call j conflicts with the latest earlier call i on the same contract
// that shares an address with it (sender or address argument) or calls
// the same function directly before it (i == j-1). Each such j is a
// retried call, and (i, j) a conflict pair.
func feedbackOf(block []contract.Call) (retried []contract.Call, pairs [][2]contract.Call) {
	addrs := func(c contract.Call) []types.Address {
		out := []types.Address{c.Sender}
		for _, a := range c.Args {
			if addr, ok := a.(types.Address); ok {
				out = append(out, addr)
			}
		}
		return out
	}
	shares := func(a, b contract.Call) bool {
		for _, x := range addrs(a) {
			for _, y := range addrs(b) {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	for j := 1; j < len(block); j++ {
		for i := j - 1; i >= 0; i-- {
			a, b := block[i], block[j]
			if a.Contract == b.Contract && (shares(a, b) || (i == j-1 && a.Function == b.Function)) {
				retried = append(retried, b)
				pairs = append(pairs, [2]contract.Call{a, b})
				break
			}
		}
	}
	return retried, pairs
}

// replay runs the script on a fresh pool of the given shard count and
// returns the first line whose answer differs, with the answer got.
func (r goldenRun) replay(shards int) (wantLine, gotLine string) {
	p := New(Config{Shards: shards})
	var inflight []Selection
	ints := func(fields []string) []int {
		out := make([]int, len(fields))
		for i, f := range fields {
			n, err := strconv.Atoi(f)
			if err != nil {
				panic(fmt.Sprintf("%s: %q: %v", r.name, strings.Join(fields, " "), err))
			}
			out[i] = n
		}
		return out
	}
	callsOf := func(idx []int) []contract.Call {
		out := make([]contract.Call, len(idx))
		for i, n := range idx {
			out[i] = r.calls[n]
		}
		return out
	}
	for _, op := range r.ops {
		fields := strings.Fields(op)
		switch fields[0] {
		case "submit":
			ab := ints(fields[1:3])
			for _, c := range r.calls[ab[0]:ab[1]] {
				p.SubmitTrusted(TxOf(c))
			}
		case "select":
			size := ints(fields[1:2])[0]
			got := fmt.Sprintf("select %d ->", size)
			sel, err := p.SelectBatch(r.policy, size)
			switch {
			case err == txpool.ErrEmpty:
				got += " empty"
			case err != nil:
				got += " " + err.Error()
			default:
				inflight = append(inflight, sel)
				for _, c := range sel.Calls {
					got += " " + strconv.FormatUint(uint64(c.GasLimit), 10)
				}
			}
			if got != op {
				return op, got
			}
		case "commit":
			retried, pairs := feedbackOf(inflight[0].Calls)
			inflight = inflight[1:]
			p.ReportConflicts(retried)
			p.ReportConflictPairs(pairs)
		case "abort":
			k := ints(fields[1:2])[0]
			p.RequeueBatch(inflight[k])
			inflight = append(inflight[:k], inflight[k+1:]...)
		case "retried":
			p.ReportConflicts(callsOf(ints(fields[1:])))
		case "pair":
			pr := callsOf(ints(fields[1:3]))
			p.ReportConflictPairs([][2]contract.Call{{pr[0], pr[1]}})
		default:
			return op, "unknown operation"
		}
	}
	return "", ""
}

// TestTrustedSelectionParity replays every frozen selection vector
// through the trusted path at several shard counts: however the queue
// is sharded, the merged window and the policy scans must pick the
// recorded blocks, and a requeued batch must land back where it was.
func TestTrustedSelectionParity(t *testing.T) {
	runs := readGoldenRuns(t)
	for _, policy := range []txpool.Policy{txpool.PolicyFIFO, txpool.PolicySpread, txpool.PolicyLockHint} {
		t.Run(policy.String(), func(t *testing.T) {
			seen := 0
			for _, r := range runs {
				if r.policy != policy {
					continue
				}
				seen++
				for _, shards := range []int{1, 3, 16} {
					if want, got := r.replay(shards); want != got {
						t.Fatalf("%s, %d shards:\nwant %s\ngot  %s", r.name, shards, want, got)
					}
				}
			}
			if seen == 0 {
				t.Fatal("no vectors for this policy")
			}
		})
	}
}
