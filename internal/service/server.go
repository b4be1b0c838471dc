package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds one request line (a feed frame carrying a large
// sample batch is the biggest legitimate frame).
const maxFrame = 8 << 20

// defaultWait bounds an OpWait with no explicit timeout.
const defaultWait = time.Minute

// Server speaks the framed-JSONL protocol over a net.Listener on
// behalf of one Service. Connections are handled concurrently; frames
// within a connection are handled sequentially, so one client's
// submits and feeds stay ordered.
type Server struct {
	svc *Service
	ln  net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// Serve starts accepting connections on ln. It returns immediately;
// use Shutdown to stop.
func Serve(svc *Service, ln net.Listener) *Server {
	srv := &Server{svc: svc, ln: ln, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv
}

// Addr returns the listener's address.
func (srv *Server) Addr() net.Addr { return srv.ln.Addr() }

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			select {
			case <-srv.done:
				return // Shutdown closed the listener
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient accept error
		}
		srv.mu.Lock()
		srv.conns[conn] = struct{}{}
		srv.mu.Unlock()
		srv.wg.Add(1)
		go srv.handle(conn)
	}
}

// Shutdown stops accepting, closes every connection, and waits for the
// handlers to exit. It does not drain the service — callers drain
// first (so clients can collect verdicts), then shut the server down.
func (srv *Server) Shutdown() {
	close(srv.done)
	srv.ln.Close()
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	srv.wg.Wait()
}

func (srv *Server) handle(conn net.Conn) {
	defer srv.wg.Done()
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxFrame)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		resp := Response{Op: "?"}
		if err := json.Unmarshal(line, &req); err != nil {
			resp.Error = fmt.Sprintf("bad frame: %v", err)
		} else {
			resp = srv.dispatch(req)
		}
		if err := enc.Encode(resp); err != nil {
			return // client went away
		}
	}
	// Scanner errors (overlong frame, io errors) just end the
	// connection; the protocol has no recovery path mid-stream.
	_ = sc.Err()
}

// dispatch executes one request against the service.
func (srv *Server) dispatch(req Request) Response {
	resp := Response{Op: req.Op, ID: req.ID}
	switch req.Op {
	case OpPing:
		resp.OK = true

	case OpSubmit:
		if req.Job == nil {
			resp.Error = "submit needs a job"
			break
		}
		resp.ID = req.Job.ID
		if err := srv.svc.Submit(*req.Job); err != nil {
			resp.Error = err.Error()
			break
		}
		resp.OK = true

	case OpFeed:
		if err := srv.svc.Feed(req.ID, req.Samples); err != nil {
			resp.Error = err.Error()
			break
		}
		resp.OK = true

	case OpVerdict:
		v, ok, err := srv.svc.Verdict(req.ID)
		if err != nil {
			resp.Error = err.Error()
			break
		}
		resp.OK = true
		if ok {
			resp.Verdict = &v
		} else {
			resp.Pending = true
		}

	case OpWait:
		timeout := defaultWait
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		v, err := srv.svc.Wait(ctx, req.ID)
		cancel()
		if err != nil {
			resp.Error = err.Error()
			break
		}
		resp.OK = true
		resp.Verdict = &v

	case OpVerdicts:
		if req.After < 0 {
			resp.Error = "after must be a non-negative verdict seq"
			break
		}
		if req.Limit < 0 {
			resp.Error = "limit must be a positive integer"
			break
		}
		resp.OK = true
		resp.Verdicts, resp.More = srv.svc.VerdictsPage(req.After, req.Limit)

	case OpStats:
		resp.OK = true
		resp.Counters = srv.svc.Counters().Counters

	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
	}
	return resp
}

// Client is a minimal framed-JSONL client for tests, the smoke target,
// and the daemon's own loopback checks. Not safe for concurrent use.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
}

// Dial connects to a daemon at network/addr ("unix", "/run/psd.sock"
// or "tcp", "127.0.0.1:7117").
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxFrame)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}, nil
}

// Do sends one request and reads its response frame.
func (c *Client) Do(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, err
		}
		return Response{}, io.EOF
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
