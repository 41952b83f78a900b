package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
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
