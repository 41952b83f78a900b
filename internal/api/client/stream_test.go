package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/types"
)

// TestSubscribeCloseWakesNext: Close, called from another goroutine while
// Next waits on an idle stream, ends Next with context.Canceled or
// io.EOF and never with another error — a subscriber tearing its stream
// down must not read that as a failed stream. The close lands before,
// during and well after Next starts to wait, hundreds of times.
func TestSubscribeCloseWakesNext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = io.WriteString(w, ": subscribed\n\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	c := New(srv.URL)
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	for i := 0; i < rounds; i++ {
		s, err := c.Subscribe(context.Background())
		if err != nil {
			t.Fatalf("round %d: subscribe: %v", i, err)
		}
		next := make(chan error, 1)
		go func() {
			_, err := s.Next()
			next <- err
		}()
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			switch i % 3 {
			case 1:
				runtime.Gosched()
			case 2:
				time.Sleep(200 * time.Microsecond)
			}
			s.Close()
		}()
		err = <-next
		<-closed
		if !errors.Is(err, context.Canceled) && err != io.EOF {
			t.Fatalf("round %d: Next after Close = %v, want context.Canceled or io.EOF", i, err)
		}
	}
}

// oracleStream is Stream.Next as it was before events were read in
// place: each line copied to a string, each payload copied again and
// decoded by encoding/json. TestStreamEventsMatchEncodingJSON holds
// Next to it.
type oracleStream struct {
	scanner *bufio.Scanner
	ctx     context.Context
	lastID  uint64
	haveID  bool
}

func newOracleStream(ctx context.Context, r io.Reader) *oracleStream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return &oracleStream{scanner: sc, ctx: ctx}
}

func (s *oracleStream) Next() (wire.Event, error) {
	var event string
	for s.scanner.Scan() {
		line := s.scanner.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			// Comment / keep-alive.
		case strings.HasPrefix(line, "id: "):
			if id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64); err == nil {
				s.lastID, s.haveID = id, true
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "dropped":
				return wire.Event{}, ErrStreamDropped
			case "reset":
				return wire.Event{}, ErrStreamReset
			}
			var ev wire.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return wire.Event{}, fmt.Errorf("api client: event decode: %w", err)
			}
			s.lastID, s.haveID = ev.Seq, true
			return ev, nil
		}
	}
	if err := s.scanner.Err(); err != nil {
		if ctxErr := s.ctx.Err(); ctxErr != nil {
			return wire.Event{}, ctxErr
		}
		return wire.Event{}, err
	}
	return wire.Event{}, io.EOF
}

// streamOver is a Stream reading body, as Subscribe builds it.
func streamOver(ctx context.Context, body io.Reader) *Stream {
	ctx, cancel := context.WithCancel(ctx)
	return newStream(&http.Response{Body: io.NopCloser(body)}, ctx, cancel)
}

// testRecord is a durable block of n receipts at height number, every
// third reverted with reason.
func testRecord(number uint64, n int, reason string) *wire.BlockRecord {
	r := &wire.BlockRecord{
		Number: number, Hash: types.HashString(fmt.Sprintf("block-%d", number)),
		ParentHash: types.HashString("parent"), StateRoot: types.HashString("state"),
		ScheduleHash: types.HashString("schedule"), Edges: n / 4,
	}
	for i := 0; i < n; i++ {
		r.IDs = append(r.IDs, types.HashString(fmt.Sprintf("tx-%d-%d", number, i)))
		rc := contract.Receipt{Tx: types.TxID(i), GasUsed: gas.Gas(21_000 + i)}
		if i%3 == 2 {
			rc.Reverted, rc.Reason = true, reason
		}
		r.Receipts = append(r.Receipts, rc)
		r.SchedPos = append(r.SchedPos, int32(n-1-i))
	}
	return r
}

// eventData is the data payload the server writes for r under seq.
func eventData(seq uint64, r *wire.BlockRecord) string {
	data, _ := wire.AppendEvent(nil, seq, r, 0, nil)
	return string(data)
}

// failingReader fails every read with err.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestStreamEventsMatchEncodingJSON: Next returns the events, errors
// and LastEventID the encoding/json decode path (oracleStream) returns
// for the same bytes — canonical frames, which take wire.ParseEvent,
// and every kind of frame that must fall back or fail.
func TestStreamEventsMatchEncodingJSON(t *testing.T) {
	canonical := eventData(1, testRecord(1, 3, "insufficient funds"))
	big := testRecord(4, 500, "out of gas")
	if len(eventData(4, big)) <= 64*1024 {
		t.Fatal("the long frame must outgrow the scanner's first buffer")
	}
	frames := []string{
		": subscribed\n\n",
		"id: 1\nevent: block\ndata: " + canonical + "\n\n",
		"event: block\nid: 2\ndata: " + eventData(2, testRecord(2, 0, "")) + "\n\n",
		": keep-alive\n\nevent: block\ndata: " + eventData(3, testRecord(3, 7, "")) + "\n\n",
		"id: 4\nevent: block\ndata: " + eventData(4, big) + "\n\n",
		// Not the server's form: encoding/json decodes each.
		"id: 5\nevent: block\ndata: " + strings.Replace(canonical, `{"seq":1,`, `{"seq":5, "block":{"number":9},`, 1) + "\n\n",
		"event: block\ndata: " + strings.Replace(canonical, `{"seq":1,`, `{"extra":[1,{"a":"b"}],"seq":6,`, 1) + "\n\n",
		"id: 7\ndata: " + eventData(7, testRecord(7, 3, `say "no" & <leave>`)) + "\n\n",
		"id: 8\ndata: " + strings.Replace(canonical, `"scheduleHash"`, `"alreadyKnown":true,"scheduleHash"`, 1) + "\n\n",
		"id: 9\ndata: " + strings.Replace(eventData(9, testRecord(9, 2, "")), `"txCount":2`, `"txCount":9223372036854775807`, 1) + "\n\n",
		"id: 10\r\nevent: block\r\ndata: " + eventData(10, testRecord(10, 1, "")) + "\r\n\r\n",
		"id: 11\nevent: block\ndata: " + eventData(10, testRecord(10, 1, "")) + "  \n\n",
		// Not decodable: the error, then the stream goes on.
		"id: 12\nevent: block\ndata: {\"seq\":12,\n\n",
		"id: x13\nevent: block\ndata: " + strings.Replace(canonical, `"seq":1`, `"seq":"13"`, 1) + "\n\n",
		"data:" + canonical + "\nid: 14\n\n",
		"id: 15\nevent: reset\ndata: {}\n\n",
		"event: blocks\ndata: " + eventData(16, testRecord(16, 1, "")) + "\n\n",
		"event: dropped\nevent: block\ndata: " + eventData(17, testRecord(17, 1, "")) + "\n\n",
		"event: dropped\ndata: {}\n\n",
	}
	stream := strings.Join(frames, "")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		tail io.Reader
		end  error
	}{
		{"clean end", context.Background(), strings.NewReader(""), io.EOF},
		{"read error", context.Background(), failingReader{errReset}, errReset},
		{"closed", cancelled, failingReader{errReset}, context.Canceled},
	}
	for _, tc := range cases {
		got := streamOver(tc.ctx, io.MultiReader(strings.NewReader(stream), tc.tail))
		want := newOracleStream(tc.ctx, io.MultiReader(strings.NewReader(stream), tc.tail))
		var events int
		for i := 0; ; i++ {
			gev, gerr := got.Next()
			wev, werr := want.Next()
			// Errors match by text; an error that wraps nothing (a
			// sentinel, io.EOF, the reader's or the context's) must be
			// that very error.
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || (werr != nil && errors.Unwrap(werr) == nil && gerr != werr) {
				t.Fatalf("%s: Next #%d error = %v, want %v", tc.name, i, gerr, werr)
			}
			if !reflect.DeepEqual(gev, wev) {
				t.Fatalf("%s: Next #%d event = %+v, want %+v", tc.name, i, gev, wev)
			}
			gid, ghave := got.LastEventID()
			if gid != want.lastID || ghave != want.haveID {
				t.Fatalf("%s: after Next #%d LastEventID = %d, %v; want %d, %v", tc.name, i, gid, ghave, want.lastID, want.haveID)
			}
			if werr == nil {
				events++
				continue
			}
			if werr == ErrStreamReset || werr == ErrStreamDropped || strings.HasPrefix(werr.Error(), "api client: event decode") {
				continue
			}
			if werr != tc.end || events != 13 {
				t.Fatalf("%s: stream ended with %v after %d events, want %v after 13", tc.name, werr, events, tc.end)
			}
			break
		}
	}
}

var errReset = errors.New("connection reset")

// cyclingReader serves b over and over.
type cyclingReader struct {
	b   []byte
	off int
}

func (r *cyclingReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestStreamNextAllocs caps what Next allocates for a 500-receipt event
// in the server's form: the receipt slice, the block's four hash
// strings, one string per receipt ID and one for the abort reason the
// reverted receipts share (506). Through encoding/json the same frame
// took 1,692 (1,526 with no receipt reverted).
func TestStreamNextAllocs(t *testing.T) {
	frame := "id: 1\nevent: block\ndata: " + eventData(1, testRecord(1, 500, "out of gas")) + "\n\n"
	s := streamOver(context.Background(), &cyclingReader{b: []byte(frame)})
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		var ev wire.Event
		if ev, err = s.Next(); err == nil && len(ev.Receipts) != 500 {
			err = fmt.Errorf("%d receipts", len(ev.Receipts))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 506 {
		t.Fatalf("Next allocates %.0f times per 500-receipt event, want at most 506", allocs)
	}
}

// BenchmarkStreamNext times Next on a 500-receipt event in the server's
// form against the encoding/json decode path it replaced.
func BenchmarkStreamNext(b *testing.B) {
	frame := []byte("id: 1\nevent: block\ndata: " + eventData(1, testRecord(1, 500, "out of gas")) + "\n\n")
	for _, bc := range []struct {
		name string
		next func(io.Reader) func() (wire.Event, error)
	}{
		{"parse", func(r io.Reader) func() (wire.Event, error) { return streamOver(context.Background(), r).Next }},
		{"encoding-json", func(r io.Reader) func() (wire.Event, error) {
			return newOracleStream(context.Background(), r).Next
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			next := bc.next(&cyclingReader{b: frame})
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
