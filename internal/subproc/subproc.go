// Package subproc manages the server subprocesses of the multi-process
// harnesses (`make authd-crash`, `make authd-replica`, `make node-e2e`):
// it starts a binary, folds its stdout and stderr into one buffer, waits
// for the "serving on http://…" line both jrsnd-authority and jrsnd-node
// print once they accept requests, and stops the process again.
package subproc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// servingPrefix starts the token a server prints once it listens; the
// URL is the whitespace-delimited field that follows "serving on ".
const servingPrefix = "serving on http://"

// waitLimit bounds how long Start waits for the serving line, and
// Terminate for a graceful exit.
const waitLimit = 30 * time.Second

// Proc is one running (or exited) subprocess.
type Proc struct {
	cmd    *exec.Cmd
	out    output
	exited chan struct{} // closed once the process is reaped and its output fully copied
	code   int           // exit status; valid once exited is closed
}

// output is the shared stdout/stderr sink. exec.Cmd calls Write from
// one goroutine at a time when both streams share it; the mutex orders
// those writes against Output and URL.
type output struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	url     string
	serving chan struct{} // closed once url is set
}

func (o *output) Write(b []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(b)
	if o.url == "" {
		if o.url = servingURL(o.buf.String()); o.url != "" {
			close(o.serving)
		}
	}
	return len(b), nil
}

// servingURL returns the URL from the first complete serving line in
// text, or "" while there is none.
func servingURL(text string) string {
	i := strings.Index(text, servingPrefix)
	if i < 0 {
		return ""
	}
	line, _, complete := strings.Cut(text[i+len("serving on "):], "\n")
	if !complete {
		return ""
	}
	return strings.Fields(line)[0]
}

// Start launches exe with args and waits up to 30 s for its serving
// line. If the process exits first, or never serves and is killed, the
// error carries everything it printed.
func Start(exe string, args []string) (*Proc, error) {
	p := &Proc{cmd: exec.Command(exe, args...), exited: make(chan struct{})}
	p.out.serving = make(chan struct{})
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	// cmd.Wait returns only after the output copiers have drained both
	// pipes, so once exited is closed Output is complete.
	go func() {
		err := p.cmd.Wait()
		var xe *exec.ExitError
		switch {
		case errors.As(err, &xe):
			p.code = xe.ExitCode()
		case err != nil:
			p.code = -1
		}
		close(p.exited)
	}()

	select {
	case <-p.out.serving:
		return p, nil
	case <-p.exited:
		if p.URL() != "" { // served, then exited before this select ran
			return p, nil
		}
		return nil, fmt.Errorf("%s exited %d before serving (output:\n%s)", exe, p.code, p.Output())
	case <-time.After(waitLimit):
		p.Kill()
		return nil, fmt.Errorf("%s never reported its address (output:\n%s)", exe, p.Output())
	}
}

// URL is the base URL from the serving line, e.g. "http://127.0.0.1:40331".
func (p *Proc) URL() string {
	p.out.mu.Lock()
	defer p.out.mu.Unlock()
	return p.out.url
}

// Output is everything the process has printed so far on stdout and
// stderr; complete once it has exited.
func (p *Proc) Output() string {
	p.out.mu.Lock()
	defer p.out.mu.Unlock()
	return p.out.buf.String()
}

// Kill SIGKILLs the process — the harnesses' crash fault — and waits for
// it to be reaped. Killing an exited process is a no-op.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	<-p.exited
}

// Wait blocks until the process exits on its own and returns its exit
// status (-1 for death by signal). After timeout it kills the process
// and reports an error.
func (p *Proc) Wait(timeout time.Duration) (int, error) {
	select {
	case <-p.exited:
		return p.code, nil
	case <-time.After(timeout):
		p.Kill()
		return 0, fmt.Errorf("process still running after %v", timeout)
	}
}

// Terminate sends SIGTERM and requires a clean graceful exit (status 0)
// within 30 s.
func (p *Proc) Terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	code, err := p.Wait(waitLimit)
	if err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if code != 0 {
		return fmt.Errorf("graceful shutdown exited %d", code)
	}
	return nil
}

// ReserveAddrs binds count loopback ports on network ("tcp" or "udp"),
// then releases them all for child processes to bind. Holding every port
// until the last is bound keeps the addresses distinct; a port could in
// principle be reused in the gap before the child binds it, but the
// harnesses need every peer's address before any process starts.
func ReserveAddrs(network string, count int) ([]string, error) {
	addrs := make([]string, 0, count)
	var held []io.Closer
	defer func() {
		for _, c := range held {
			_ = c.Close() // nothing was sent on these sockets
		}
	}()
	for i := 0; i < count; i++ {
		switch network {
		case "tcp":
			ln, err := net.Listen(network, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			held, addrs = append(held, ln), append(addrs, ln.Addr().String())
		case "udp":
			pc, err := net.ListenPacket(network, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			held, addrs = append(held, pc), append(addrs, pc.LocalAddr().String())
		default:
			return nil, fmt.Errorf("subproc: unsupported network %q", network)
		}
	}
	return addrs, nil
}
