package subproc

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperEnv selects a helper mode: when set, the test binary acts as the
// managed subprocess instead of running the tests.
const helperEnv = "SUBPROC_TEST_HELPER"

const helperURL = "http://127.0.0.1:4711"

func TestMain(m *testing.M) {
	if mode := os.Getenv(helperEnv); mode != "" {
		os.Exit(helper(mode))
	}
	os.Exit(m.Run())
}

// helper is the subprocess side. Every serving mode registers for
// SIGTERM before printing the serving line, so a Terminate that follows
// Start can never hit the default (fatal) disposition.
func helper(mode string) int {
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	switch mode {
	case "fail":
		fmt.Fprintln(os.Stderr, "helper: bad flag -bogus")
		return 2
	case "serve", "serve-exit3":
		fmt.Fprintln(os.Stderr, "helper: warming up on stderr")
		fmt.Printf("helper: serving on %s (mode %s)\n", helperURL, mode)
		<-term
		if mode == "serve-exit3" {
			return 3
		}
		return 0
	case "crash":
		fmt.Printf("helper: serving on %s\n", helperURL)
		return 137
	}
	fmt.Fprintf(os.Stderr, "helper: unknown mode %q\n", mode)
	return 1
}

func startHelper(t *testing.T, mode string) (*Proc, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(helperEnv, mode)
	return Start(exe, nil)
}

func TestStartParsesServingURL(t *testing.T) {
	p, err := startHelper(t, "serve")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Kill()
	if p.URL() != helperURL {
		t.Fatalf("URL = %q, want %q", p.URL(), helperURL)
	}
}

func TestStderrFoldsIntoOutput(t *testing.T) {
	p, err := startHelper(t, "serve")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(); err != nil {
		t.Fatal(err)
	}
	out := p.Output()
	for _, want := range []string{"warming up on stderr", "serving on " + helperURL} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q lacks %q", out, want)
		}
	}
}

func TestTerminate(t *testing.T) {
	for _, tc := range []struct {
		mode    string
		wantErr bool
	}{
		{"serve", false},
		{"serve-exit3", true},
	} {
		p, err := startHelper(t, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		err = p.Terminate()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Terminate() = %v, want error %v", tc.mode, err, tc.wantErr)
		}
		if tc.wantErr && !strings.Contains(fmt.Sprint(err), "exited 3") {
			t.Errorf("%s: error %q does not name exit status 3", tc.mode, err)
		}
		p.Kill() // must not block on an already-reaped process
	}
}

func TestWaitReturnsExitCode(t *testing.T) {
	p, err := startHelper(t, "crash")
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if code != 137 {
		t.Fatalf("Wait() = %d, want 137", code)
	}
}

func TestStartFailsWhenChildExitsBeforeServing(t *testing.T) {
	p, err := startHelper(t, "fail")
	if err == nil {
		p.Kill()
		t.Fatal("Start succeeded for a child that never served")
	}
	for _, want := range []string{"exited 2 before serving", "bad flag -bogus"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

func TestReserveAddrs(t *testing.T) {
	for _, network := range []string{"tcp", "udp"} {
		addrs, err := ReserveAddrs(network, 4)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, a := range addrs {
			if seen[a] {
				t.Errorf("%s: address %s reserved twice", network, a)
			}
			seen[a] = true
			// Released: the caller can bind it again.
			var c io.Closer
			if network == "tcp" {
				c, err = net.Listen(network, a)
			} else {
				c, err = net.ListenPacket(network, a)
			}
			if err != nil {
				t.Errorf("%s: rebinding %s: %v", network, a, err)
				continue
			}
			c.Close()
		}
	}
	if _, err := ReserveAddrs("unix", 1); err == nil {
		t.Error("ReserveAddrs accepted an unsupported network")
	}
}
