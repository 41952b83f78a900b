package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/workload"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}, {-5, 1}, {120, 5},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", vals)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median and mean of an empty sample must be NaN, so a missing phase cannot read as a measurement")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestFastAndWindows(t *testing.T) {
	// 20 samples: the fastest tenth is the two smallest.
	vals := make([]float64, 20)
	for i := range vals {
		vals[i] = float64(20 - i)
	}
	if got := fast(vals); got != 1.5 {
		t.Errorf("fast of 1..20 = %v, want 1.5 (mean of the fastest two)", got)
	}
	if got := fast([]float64{9, 4, 7}); got != 4 {
		t.Errorf("fast of a small sample = %v, want its minimum 4", got)
	}
	if !math.IsNaN(fast(nil)) {
		t.Error("fast of an empty sample must be NaN")
	}
	got := windows([]float64{1, 3, 5, 7}, 2)
	want := []float64{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d = %v, want %v", i, got[i], want[i])
		}
	}
	if got := windows([]float64{2, 4}, 5); len(got) != 1 || got[0] != 3 {
		t.Errorf("a sample shorter than the window is one window: got %v", got)
	}
	if got := windows(nil, 5); len(got) != 0 {
		t.Errorf("windows of nothing = %v", got)
	}
}

func TestIntervals(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	stamps := []time.Time{at(0), at(10), at(30), at(60), at(100)}
	full := []bool{true, true, false, true, true}
	got := intervals(stamps, func(i int) bool { return full[i] })
	// The gaps on either side of the short block (index 2) are dropped.
	want := []float64{0.010, 0.040}
	if len(got) != len(want) {
		t.Fatalf("intervals = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
	if got := intervals(stamps[:1], func(int) bool { return true }); len(got) != 0 {
		t.Errorf("one stamp has no interval, got %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("receipt", "", 7, at(0), at(20))
	tr.add("miner.mine", "receipt", 7, at(2), at(10))
	tr.add("node.accept", "receipt", 7, at(11), at(16))
	tr.add("miner.mine", "receipt", 8, at(30), at(33)) // another block: not a child of receipt 7
	self := tr.selfTimes()
	if got := self["receipt"]; len(got) != 1 || math.Abs(got[0]-0.007) > 1e-9 {
		t.Errorf("self time of receipt = %v, want [0.007]", got)
	}
	if got := self["miner.mine"]; len(got) != 2 || math.Abs(got[0]-0.008) > 1e-9 {
		t.Errorf("self time of a leaf span = %v, want its duration", got)
	}
}

// TestCallsContentUnique pins the reason generate exists: as generated,
// the paper mix and the hot/cold workload contain byte-identical calls
// that hash to one transaction ID (and would fold to 409 tx_duplicate
// over /v1/tx); after generate every workload's calls are distinct.
func TestCallsContentUnique(t *testing.T) {
	for _, sp := range specs {
		wl, err := generate(sp, 3)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		seen := make(map[string]int, len(wl.Calls))
		for i, c := range wl.Calls {
			id := wire.TxIDOf(c).String()
			if j, dup := seen[id]; dup {
				t.Fatalf("%s: calls %d and %d share transaction ID %s", sp.name, j, i, id)
			}
			seen[id] = i
		}
		if len(wl.Calls) != sp.worldTxs {
			t.Errorf("%s: %d calls, want %d", sp.name, len(wl.Calls), sp.worldTxs)
		}
		if need := sp.blocks * sp.blockSize; need > sp.worldTxs || sp.receiptRounds*receiptRoundSize > sp.worldTxs {
			t.Errorf("%s: world of %d txs cannot feed %d drained txs and %d receipt rounds", sp.name, sp.worldTxs, need, sp.receiptRounds)
		}
	}
	for _, kind := range []workload.Kind{workload.KindMixed, workload.KindHotCold} {
		raw, err := workload.Generate(workload.Params{Kind: kind, Transactions: 600, ConflictPercent: 60, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[string]bool)
		for _, c := range raw.Calls {
			ids[wire.TxIDOf(c).String()] = true
		}
		if len(ids) == len(raw.Calls) {
			t.Errorf("%v: raw generated calls are already distinct; the uniquify step and its README pitfall are stale", kind)
		}
	}
}

// benchmarkFile is the contract file at the repo root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, chainbench has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), chainbench has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
}

// TestQuickSmoke runs one workload end to end with two units per phase,
// untraced and traced, and checks the output contract: every metric
// BENCHMARK.json names for that mode is printed exactly once, with its
// unit and a finite value, no other metric is, and no operation failed.
func TestQuickSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, mode := range []struct {
		trace string
		want  []benchMetric
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-workload", "ingest_smalltx", "-seed", "5", "-quick", "-trace", mode.trace, "-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit code %d\nstderr: %s\nstdout: %s", mode.trace, code, stderr.String(), stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", mode.trace, err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", mode.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("trace %s: %d metrics in the result, BENCHMARK.json names %d", mode.trace, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %s: metric %s missing from the result", mode.trace, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s has unit %q, BENCHMARK.json says %q", mode.trace, m.Name, got.Unit, m.Unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("trace %s: metric %s = %v", mode.trace, m.Name, got.Value)
			}
			printed := 0
			for _, l := range lines[:len(lines)-1] {
				if strings.HasPrefix(l, m.Name+" ") {
					printed++
				}
			}
			if printed != 1 {
				t.Errorf("trace %s: metric %s printed %d times", mode.trace, m.Name, printed)
			}
		}
	}
}
