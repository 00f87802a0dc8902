package live

import (
	"fmt"
	"net"
	"net/http"
	"sync"
)

// HTTPServer is an HTTP listener that serves long-lived event streams
// and can still shut down promptly: Close ends every open stream and
// waits for its handler to return, so no server goroutine survives it.
// Both the CLI's live server and the campaign daemon run on one.
type HTTPServer struct {
	ln       net.Listener
	srv      *http.Server
	shutdown chan struct{}

	mu        sync.Mutex // guards closing
	closing   bool
	streams   sync.WaitGroup // open StreamEvents calls
	closeOnce sync.Once
}

// Listen binds addr (":0" picks an ephemeral port). Nothing is served
// until Serve.
func Listen(addr string) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &HTTPServer{ln: ln, shutdown: make(chan struct{})}, nil
}

// Serve starts serving h on the bound listener in the background. Call
// it once, before Close.
func (s *HTTPServer) Serve(h http.Handler) {
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(s.ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
}

// Addr returns the bound listen address (useful with ":0").
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server, ends any open event streams, and waits for
// their handlers to return. Safe to call more than once.
func (s *HTTPServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		close(s.shutdown)
		err = s.srv.Close()
		s.streams.Wait()
	})
	return err
}

// StreamEvents serves hub's event stream on w as NDJSON: the flight
// ring's retained events, then live ones. It subscribes before reading
// the ring and skips live events whose Seq was replayed, so no event is
// missed or repeated across the seam. The stream ends when the client
// leaves or the server closes, or once done fires and the buffered
// events are written; a nil done never fires.
//
// It returns false, having written nothing, when the server has begun
// closing; the caller then answers 503 in its own error format.
func (s *HTTPServer) StreamEvents(w http.ResponseWriter, r *http.Request, hub *Hub, done <-chan struct{}) bool {
	// The closing flag and the WaitGroup share a mutex so a stream can
	// never Add after Close's Wait has started.
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return false
	}
	s.streams.Add(1)
	s.mu.Unlock()
	defer s.streams.Done()

	sub := hub.Bus().Subscribe(256)
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var last uint64
	for _, e := range hub.FlightEvents() {
		if WriteEventNDJSON(w, e) != nil {
			return true
		}
		last = e.Seq
	}
	rc.Flush()
	// write skips events already replayed from the flight ring.
	write := func(e Event) bool { return e.Seq <= last || WriteEventNDJSON(w, e) == nil }
	for {
		select {
		case e := <-sub.Events():
			if !write(e) {
				return true
			}
			rc.Flush()
		case <-done:
			for {
				select {
				case e := <-sub.Events():
					if !write(e) {
						return true
					}
				default:
					rc.Flush()
					return true
				}
			}
		case <-r.Context().Done():
			return true
		case <-s.shutdown:
			return true
		}
	}
}
