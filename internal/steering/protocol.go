// Package steering implements the computational-steering loop of
// Fig. 2: a client connects to the simulation master node, sends
// visualisation parameters (viewpoint, field), simulation
// parameter changes (iolet pressures) and control commands
// (pause/resume/quit), and receives rendered images and status reports
// (current step, performance, and "estimates on the remaining
// runtime"). Transport is newline-delimited JSON over TCP on the
// loopback interface — the paper's cluster network substituted by the
// only network available offline.
package steering

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/insitu"
)

// Op codes of client requests.
const (
	OpImage    = "image"
	OpStatus   = "status"
	OpSetIolet = "set-iolet"
	OpPause    = "pause"
	OpResume   = "resume"
	OpQuit     = "quit"
)

// ClientMsg is one steering request.
type ClientMsg struct {
	Op string `json:"op"`
	// Image parameters (OpImage); also persisted as the default render
	// request for unattended in situ frames.
	Request *insitu.Request `json:"request,omitempty"`
	// Iolet parameter change (OpSetIolet).
	Iolet   int     `json:"iolet,omitempty"`
	Density float64 `json:"density,omitempty"`
}

// Status is the server's report on the running simulation.
type Status struct {
	Step          int     `json:"step"`
	TotalSteps    int     `json:"total_steps"`
	NumSites      int     `json:"num_sites"`
	Ranks         int     `json:"ranks"`
	SitesPerSec   float64 `json:"sites_per_sec"`
	RemainingSec  float64 `json:"remaining_sec"`
	Paused        bool    `json:"paused"`
	CommBytes     int64   `json:"comm_bytes"`
	LoadImbalance float64 `json:"load_imbalance"`
}

// ServerMsg is one steering reply.
type ServerMsg struct {
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`
	// Image reply: PNG-encoded pixels.
	W   int    `json:"w,omitempty"`
	H   int    `json:"h,omitempty"`
	PNG []byte `json:"png,omitempty"`
	// Status reply.
	Status *Status `json:"status,omitempty"`
}

// Conn wraps a TCP connection with the framing used on both sides.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
	mu sync.Mutex
}

func newConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// send writes one JSON frame.
func (c *Conn) send(v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(data); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	return c.w.Flush()
}

// recv reads one JSON frame into v.
func (c *Conn) recv(v any) error {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// recvLine reads one raw frame, leaving decoding to the caller so a
// malformed frame can be answered without tearing the connection down
// (newline framing stays intact regardless of the payload).
func (c *Conn) recvLine() ([]byte, error) {
	return c.r.ReadBytes('\n')
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// Op is a pending steering request awaiting the simulation loop.
type Op struct {
	Msg   ClientMsg
	reply chan ServerMsg
}

// Reply answers the client; must be called exactly once per Op.
func (o *Op) Reply(m ServerMsg) { o.reply <- m }

// Server accepts steering clients and queues their requests for the
// simulation master to poll between time steps (step 3-6 of the §IV-C1
// sequence: client sends parameters → master propagates → visualisation
// component builds the image → image returns to the client). The queue
// itself lives in a transport-agnostic Controller; the Server is just
// the newline-JSON-over-TCP transport in front of it.
type Server struct {
	ln        net.Listener
	ctrl      *Controller
	ownCtrl   bool
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[*Conn]struct{}
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") with a private
// controller, owned and closed by the server.
func Serve(addr string) (*Server, error) {
	s, err := ServeController(addr, NewController())
	if err != nil {
		return nil, err
	}
	s.ownCtrl = true
	return s, nil
}

// ServeController starts the TCP transport in front of an existing
// controller — e.g. one shared with the HTTP service — which the
// caller remains responsible for closing.
func ServeController(addr string, ctrl *Controller) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("steering: %w", err)
	}
	s := &Server{ln: ln, ctrl: ctrl, done: make(chan struct{}), conns: make(map[*Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Controller returns the queue this transport feeds.
func (s *Server) Controller() *Controller { return s.ctrl }

// Addr returns the bound address for clients to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(conn)
		// Registration and Close's sweep share connMu: either the
		// sweep sees this conn and closes it, or we see done already
		// closed and refuse the late accept — otherwise a connection
		// accepted just before Close would park a handler in a read
		// forever and deadlock Close's wg.Wait.
		s.connMu.Lock()
		select {
		case <-s.done:
			s.connMu.Unlock()
			c.Close()
			continue
		default:
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.clientLoop(c)
	}
}

func (s *Server) clientLoop(c *Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
	}()
	for {
		line, err := c.recvLine()
		if err != nil {
			return
		}
		var msg ClientMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			// Framing is intact (one line consumed); answer and keep
			// the connection rather than dropping the client.
			if err := c.send(ServerMsg{Error: "malformed frame: " + err.Error()}); err != nil {
				return
			}
			continue
		}
		op, err := s.ctrl.Submit(msg)
		if err != nil {
			select {
			case <-s.ctrl.Done():
				return
			default:
			}
			if err := c.send(ServerMsg{Op: msg.Op, Error: err.Error()}); err != nil {
				return
			}
			continue
		}
		select {
		case rep := <-op.reply:
			if err := c.send(rep); err != nil {
				return
			}
		case <-s.ctrl.Done():
			return
		case <-s.done:
			return
		}
		if msg.Op == OpQuit {
			return
		}
	}
}

// Poll returns the next pending request without blocking, or nil.
func (s *Server) Poll() *Op { return s.ctrl.Poll() }

// PollWait blocks until a request arrives or the server closes; used
// while the simulation is paused.
func (s *Server) PollWait() *Op { return s.ctrl.PollWait() }

// Close stops accepting, unblocks handlers, and closes the controller
// when the server owns it. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.ln.Close()
		// Unblock handlers parked in a read on a live connection;
		// done is closed first so acceptLoop cannot register a new
		// conn after this sweep.
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		if s.ownCtrl {
			s.ctrl.Close()
		}
	})
	s.wg.Wait()
}

// Client is the user-side steering handle.
type Client struct {
	conn *Conn
}

// Dial connects to a steering server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("steering: %w", err)
	}
	return &Client{conn: newConn(c)}, nil
}

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(msg ClientMsg) (ServerMsg, error) {
	if err := c.conn.send(msg); err != nil {
		return ServerMsg{}, err
	}
	var rep ServerMsg
	if err := c.conn.recv(&rep); err != nil {
		return ServerMsg{}, err
	}
	if rep.Error != "" {
		return rep, fmt.Errorf("steering: server: %s", rep.Error)
	}
	return rep, nil
}

// RequestImage asks the simulation to render with the given parameters
// and returns PNG bytes plus dimensions.
func (c *Client) RequestImage(req insitu.Request) (png []byte, w, h int, err error) {
	rep, err := c.roundTrip(ClientMsg{Op: OpImage, Request: &req})
	if err != nil {
		return nil, 0, 0, err
	}
	return rep.PNG, rep.W, rep.H, nil
}

// Status fetches the simulation status report.
func (c *Client) Status() (Status, error) {
	rep, err := c.roundTrip(ClientMsg{Op: OpStatus})
	if err != nil {
		return Status{}, err
	}
	if rep.Status == nil {
		return Status{}, fmt.Errorf("steering: empty status")
	}
	return *rep.Status, nil
}

// SetIoletDensity changes a boundary condition mid-run — the "closing
// the loop" act of §IV-C3.
func (c *Client) SetIoletDensity(iolet int, density float64) error {
	_, err := c.roundTrip(ClientMsg{Op: OpSetIolet, Iolet: iolet, Density: density})
	return err
}

// Pause suspends time stepping (the simulation keeps serving steering
// requests).
func (c *Client) Pause() error {
	_, err := c.roundTrip(ClientMsg{Op: OpPause})
	return err
}

// Resume continues time stepping.
func (c *Client) Resume() error {
	_, err := c.roundTrip(ClientMsg{Op: OpResume})
	return err
}

// Quit asks the simulation to terminate early.
func (c *Client) Quit() error {
	_, err := c.roundTrip(ClientMsg{Op: OpQuit})
	return err
}
