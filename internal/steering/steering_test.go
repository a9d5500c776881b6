package steering

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/insitu"
)

// echoServer runs a server goroutine that services ops with canned
// replies, mimicking the simulation master loop.
func echoServer(t *testing.T) (*Server, *sync.WaitGroup) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			op := srv.PollWait()
			if op == nil {
				return
			}
			switch op.Msg.Op {
			case OpImage:
				op.Reply(ServerMsg{Op: OpImage, W: 8, H: 6, PNG: []byte{1, 2, 3}})
			case OpStatus:
				op.Reply(ServerMsg{Op: OpStatus, Status: &Status{Step: 42, TotalSteps: 100, Ranks: 4}})
			case OpSetIolet:
				if op.Msg.Iolet < 0 {
					op.Reply(ServerMsg{Op: OpSetIolet, Error: "bad iolet"})
				} else {
					op.Reply(ServerMsg{Op: OpSetIolet})
				}
			case OpPause, OpResume, OpQuit:
				op.Reply(ServerMsg{Op: op.Msg.Op})
			default:
				op.Reply(ServerMsg{Op: op.Msg.Op, Error: "unknown"})
			}
			if op.Msg.Op == OpQuit {
				return
			}
		}
	}()
	return srv, &wg
}

func TestClientServerRoundTrip(t *testing.T) {
	srv, wg := echoServer(t)
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	png, w, h, err := cl.RequestImage(insitu.DefaultRequest())
	if err != nil {
		t.Fatal(err)
	}
	if w != 8 || h != 6 || len(png) != 3 {
		t.Errorf("image reply: w=%d h=%d png=%v", w, h, png)
	}
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 42 || st.TotalSteps != 100 || st.Ranks != 4 {
		t.Errorf("status = %+v", st)
	}
	if err := cl.SetIoletDensity(0, 1.02); err != nil {
		t.Fatal(err)
	}
	if err := cl.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestServerErrorPropagates(t *testing.T) {
	srv, _ := echoServer(t)
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetIoletDensity(-5, 1.0); err == nil {
		t.Error("server error not propagated")
	}
}

func TestPollNonBlocking(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if op := srv.Poll(); op != nil {
		t.Error("poll returned phantom op")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("poll blocked")
	}
}

func TestMultipleClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			op := srv.PollWait()
			if op == nil {
				return
			}
			op.Reply(ServerMsg{Op: OpStatus, Status: &Status{Step: i}})
		}
	}()
	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c1.Status(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Status(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestMalformedFrame sends a non-JSON line; the server must answer
// with an error frame and keep the connection serviceable.
func TestMalformedFrame(t *testing.T) {
	srv, wg := echoServer(t)
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc)
	defer c.Close()
	if _, err := nc.Write([]byte("{this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var rep ServerMsg
	if err := c.recv(&rep); err != nil {
		t.Fatalf("no reply to malformed frame: %v", err)
	}
	if rep.Error == "" {
		t.Errorf("malformed frame accepted: %+v", rep)
	}
	// The same connection still works for a valid request afterwards.
	if err := c.send(ClientMsg{Op: OpStatus}); err != nil {
		t.Fatal(err)
	}
	var rep2 ServerMsg
	if err := c.recv(&rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Error != "" || rep2.Status == nil || rep2.Status.Step != 42 {
		t.Errorf("connection unusable after malformed frame: %+v", rep2)
	}
	if err := c.send(ClientMsg{Op: OpQuit}); err != nil {
		t.Fatal(err)
	}
	var rep3 ServerMsg
	if err := c.recv(&rep3); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestUnknownOp verifies an unrecognised verb is refused at the
// controller boundary without reaching the simulation loop. set-roi is
// one: it changed nothing the solver reads and is no longer a verb.
func TestUnknownOp(t *testing.T) {
	srv, wg := echoServer(t)
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc)
	defer c.Close()
	var rep ServerMsg
	for _, op := range []string{"explode", "set-roi"} {
		if err := c.send(ClientMsg{Op: op}); err != nil {
			t.Fatal(err)
		}
		rep = ServerMsg{}
		if err := c.recv(&rep); err != nil {
			t.Fatal(err)
		}
		if rep.Error == "" {
			t.Errorf("unknown op %q accepted: %+v", op, rep)
		}
	}
	// Still serviceable, then shut the echo loop down.
	if err := c.send(ClientMsg{Op: OpQuit}); err != nil {
		t.Fatal(err)
	}
	if err := c.recv(&rep); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestConcurrentClientsInterleaved has two clients blast interleaved
// ops at one server; each reply must route back to the connection that
// asked. The echo loop tags replies with the request's iolet index so
// cross-wiring is detectable.
func TestConcurrentClientsInterleaved(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			op := srv.PollWait()
			if op == nil {
				return
			}
			// Echo the iolet index through the W field.
			op.Reply(ServerMsg{Op: op.Msg.Op, W: op.Msg.Iolet})
		}
	}()

	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, 2*perClient)
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			c := newConn(nc)
			defer c.Close()
			for i := 0; i < perClient; i++ {
				tag := client*1000 + i
				if err := c.send(ClientMsg{Op: OpSetIolet, Iolet: tag}); err != nil {
					errs <- err
					return
				}
				var rep ServerMsg
				if err := c.recv(&rep); err != nil {
					errs <- err
					return
				}
				if rep.W != tag {
					errs <- fmt.Errorf("client %d got reply for tag %d, want %d", client, rep.W, tag)
				}
			}
		}(client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.Close()
	<-done
}

// TestControllerDirect drives the transport-agnostic queue the way the
// HTTP service does: Do round trips without any TCP in the picture.
func TestControllerDirect(t *testing.T) {
	ctrl := NewController()
	go func() {
		for {
			op := ctrl.PollWait()
			if op == nil {
				return
			}
			if op.Msg.Op == OpSetIolet && op.Msg.Iolet < 0 {
				op.Reply(ServerMsg{Op: op.Msg.Op, Error: "bad iolet"})
				continue
			}
			op.Reply(ServerMsg{Op: op.Msg.Op})
		}
	}()
	if _, err := ctrl.Do(ClientMsg{Op: OpPause}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Do(ClientMsg{Op: OpSetIolet, Iolet: -1}); err == nil {
		t.Error("server-side error not surfaced")
	}
	if _, err := ctrl.Do(ClientMsg{Op: "nonsense"}); err == nil {
		t.Error("unknown op accepted by controller")
	}
	if ctrl.Closed() {
		t.Error("controller reports closed while open")
	}
	ctrl.Close()
	ctrl.Close() // idempotent
	if !ctrl.Closed() {
		t.Error("controller not closed after Close")
	}
	if _, err := ctrl.Do(ClientMsg{Op: OpStatus}); err == nil {
		t.Error("Do succeeded on closed controller")
	}
	if op := ctrl.PollWait(); op != nil {
		t.Error("PollWait returned op after close")
	}
}

// TestSharedControllerTCPAndDirect runs the TCP transport and a direct
// in-process caller against one controller — the exact sharing the
// HTTP service relies on.
func TestSharedControllerTCPAndDirect(t *testing.T) {
	ctrl := NewController()
	defer ctrl.Close()
	srv, err := ServeController("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Controller() != ctrl {
		t.Fatal("server did not adopt the shared controller")
	}
	go func() {
		for {
			op := ctrl.PollWait()
			if op == nil {
				return
			}
			op.Reply(ServerMsg{Op: op.Msg.Op, W: op.Msg.Iolet})
		}
	}()
	// Direct caller.
	rep, err := ctrl.Do(ClientMsg{Op: OpSetIolet, Iolet: 7})
	if err != nil || rep.W != 7 {
		t.Fatalf("direct do: %+v, %v", rep, err)
	}
	// TCP caller against the same queue.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetIoletDensity(3, 1.0); err != nil {
		t.Fatal(err)
	}
	// Closing the server must not close a shared controller.
	srv.Close()
	if ctrl.Closed() {
		t.Error("server close tore down the shared controller")
	}
}

func TestServerCloseUnblocksPollWait(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Op, 1)
	go func() { got <- srv.PollWait() }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case op := <-got:
		if op != nil {
			t.Error("expected nil op on close")
		}
	case <-time.After(2 * time.Second):
		t.Error("PollWait did not unblock on Close")
	}
}
