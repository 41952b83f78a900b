package node

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"contractstm/internal/runtime"
)

// fsyncMicros matches the one status field no run can fix: the summed
// fsync latency.
var fsyncMicros = regexp.MustCompile(`"walFsyncMicros":[0-9]+`)

// TestStatusBytes: after a fixed sequence of submits and mines over
// HTTP, GET /v1/status answers, byte for byte, the body in
// testdata/status-<node>.golden, on an in-memory node and on a durable
// one. The durable node's fsync time is masked as "walFsyncMicros":N.
// The goldens were captured when the node kept its own status record
// beside the wire schema and copied one into the other field by field;
// they hold every field name, order and omission of that copy.
func TestStatusBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{
		{"memory", false},
		{"durable", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, holders := newTokenWorld(t, 4)
			cfg := Config{World: w, Workers: 2, Runner: runtime.NewSimRunner()}
			if tc.durable {
				cfg.DataDir = t.TempDir()
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer n.Close()
			url := httpNode(t, n)

			for round, mine := range []string{`{"blockSize":3}`, `{}`} {
				for i, from := range holders {
					resp, body := postJSON(t, url+"/v1/tx", transferTx(from, holders[(i+1+round)%len(holders)], uint64(1+i)))
					if resp.StatusCode != http.StatusAccepted {
						t.Fatalf("submit %d.%d answered %d: %s", round, i, resp.StatusCode, body)
					}
				}
				// A resubmit answers 409 and counts as an API error.
				if resp, body := postJSON(t, url+"/v1/tx", transferTx(holders[0], holders[1+round], 1)); resp.StatusCode != http.StatusConflict {
					t.Fatalf("resubmit %d answered %d: %s", round, resp.StatusCode, body)
				}
				resp, err := http.Post(url+"/v1/mine", "application/json", strings.NewReader(mine))
				if err != nil {
					t.Fatalf("mine %d: %v", round, err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("mine %d answered %d", round, resp.StatusCode)
				}
			}

			resp, err := http.Get(url + "/v1/status")
			if err != nil {
				t.Fatalf("status: %v", err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			got = fsyncMicros.ReplaceAll(got, []byte(`"walFsyncMicros":N`))
			want, err := os.ReadFile("testdata/status-" + tc.name + ".golden")
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("GET /v1/status\n got: %s\nwant: %s", got, want)
			}
		})
	}
}
