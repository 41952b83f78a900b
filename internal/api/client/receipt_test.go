package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contractstm/internal/api/wire"
)

// TestReceiptMatchesEncodingJSON: Receipt and WaitReceipt return what
// json.Decoder returns for the same GET /v1/tx/{id} answer, within the
// same 64 KiB: the server's bytes (ReceiptRef.AppendJSON and a newline)
// for committed, aborted, pending and evicted receipts, which take
// wire.ParseTxReceipt unless a string needs escaping, and bodies that
// fall back or fail. A failed decode returns the zero receipt, as a
// failed submit decode does (json.Decoder may have filled some fields).
func TestReceiptMatchesEncodingJSON(t *testing.T) {
	plainAbort := testRecord(5, 3, "insufficient funds")
	escapedAbort := testRecord(6, 3, `say "no" <&>`)
	longAbort := testRecord(7, 3, strings.Repeat("out of gas ", 60))
	served := func(ref wire.ReceiptRef) string { return string(ref.AppendJSON(nil)) + "\n" }
	rows := []struct {
		name, body string
		fast       bool // wire.ParseTxReceipt takes it
	}{
		{"committed", served(plainAbort.Ref(0)), true},
		{"aborted", served(plainAbort.Ref(2)), true},
		{"aborted, escaped reason", served(escapedAbort.Ref(2)), false},
		{"aborted, reason past the first read", served(longAbort.Ref(2)), true},
		{"pending", served(wire.ReceiptRef{ID: plainAbort.IDs[1]}), true},
		{"evicted", served(wire.ReceiptRef{ID: plainAbort.IDs[1], Evicted: true}), true},
		{"other spacing", "{\n  \"id\": \"0x01\",\n  \"status\": \"pending\",\n  \"txIndex\": -1,\n  \"scheduleIndex\": -1\n}\n", false},
		{"unknown field", `{"id":"0x01","status":"committed","txIndex":0,"scheduleIndex":0,"extra":true}`, false},
		{"trailing value", `{"id":"0x01","status":"evicted","txIndex":0,"scheduleIndex":0} {"id":"0x02"}`, false},
		{"truncated", `{"id":"0x01","status":"comm`, false},
		{"wrong type", `{"id":1}`, false},
		{"empty", ``, false},
		{"past the limit", `{"id":"0x01","abortReason":"` + strings.Repeat("x", 1<<16) + `"}`, false},
	}
	bodies := map[string]string{}
	for i, row := range rows {
		bodies[fmt.Sprint(i)] = row.body
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, bodies[strings.TrimPrefix(r.URL.Path, "/v1/tx/")])
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetry(NoRetry))
	for i, row := range rows {
		id := fmt.Sprint(i)
		var want wire.TxReceipt
		wantErr := json.NewDecoder(io.LimitReader(strings.NewReader(row.body), 1<<16)).Decode(&want)
		if wantErr != nil {
			want = wire.TxReceipt{}
			wantErr = fmt.Errorf("api client: decode /v1/tx/%s: %w", id, wantErr)
		}
		got, err := c.Receipt(context.Background(), id)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: Receipt = %+v, %v; want %+v, %v", row.name, got, err, want, wantErr)
		}
		if _, ok := wire.ParseTxReceipt([]byte(row.body)); ok != row.fast {
			t.Errorf("%s: ParseTxReceipt ok = %v, want %v", row.name, ok, row.fast)
		}
		if wantErr == nil && want.Status != wire.StatusPending {
			if got, err := c.WaitReceipt(context.Background(), id, 0); got != want || err != nil {
				t.Errorf("%s: WaitReceipt = %+v, %v; want %+v", row.name, got, err, want)
			}
		}
	}
	if long := rows[3].body; len(long) <= 512 || !bytes.HasPrefix([]byte(long), []byte(`{"id":`)) {
		t.Fatalf("the long row is %d bytes; it must outgrow the first read", len(long))
	}
}
