// Command jrsnd-node runs one JR-SND neighbor-discovery daemon over real
// UDP sockets (internal/transport). On boot it fetches its code-slot
// assignment from a running jrsnd-authority, derives its handshake key,
// binds the datagram socket, and then works its configured peer set:
// dialing until every peer has completed the authenticated handshake,
// beaconing wire HELLO frames, and recording which neighbors it has
// discovered. An HTTP sidecar serves /metrics (Prometheus exposition),
// /status (JSON), and /healthz; -trace streams the transport's
// peer-lifecycle and drop events as JSONL.
//
//	jrsnd-node -authority http://127.0.0.1:7946 -node-id 3 \
//	    -addr 127.0.0.1:9003 -peers 127.0.0.1:9001,127.0.0.1:9002
//
// With -e2e it instead runs the multi-process end-to-end harness (`make
// node-e2e`): boot a real authority plus -e2e-nodes daemons on loopback,
// wait for full mutual discovery, SIGKILL one daemon, verify its peers
// reap it, restart it on the same slot and address, verify re-discovery,
// and require zero invariant violations and clean shutdowns throughout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/authd"
	"repro/internal/ibc"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

type options struct {
	authority string
	nodeID    int
	addr      string
	httpAddr  string
	peers     string
	beacon    time.Duration
	idleAfter time.Duration
	pingEvery time.Duration
	maxPeers  int
	tracePath string

	e2e          bool
	e2eNodes     int
	e2eAuthority string
	e2eDir       string
}

func main() {
	var opts options
	flag.StringVar(&opts.authority, "authority", "", "jrsnd-authority base URL (required)")
	flag.IntVar(&opts.nodeID, "node-id", -1, "this daemon's provisioned slot ID (required)")
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:0", "UDP listen address")
	flag.StringVar(&opts.httpAddr, "http", "127.0.0.1:0", "HTTP sidecar address (/metrics, /status, /healthz)")
	flag.StringVar(&opts.peers, "peers", "", "comma-separated peer UDP addresses to discover")
	flag.DurationVar(&opts.beacon, "beacon", 250*time.Millisecond, "beacon interval: re-dial unregistered peers and broadcast a HELLO frame")
	flag.DurationVar(&opts.idleAfter, "idle-after", 30*time.Second, "reap a peer silent this long")
	flag.DurationVar(&opts.pingEvery, "ping-every", 0, "keepalive probe interval (0 = idle-after/3)")
	flag.IntVar(&opts.maxPeers, "max-peers", 64, "peer table cap")
	flag.StringVar(&opts.tracePath, "trace", "", "write transport trace events to this JSONL file")
	flag.BoolVar(&opts.e2e, "e2e", false, "run the multi-process e2e harness instead of serving")
	flag.IntVar(&opts.e2eNodes, "e2e-nodes", 8, "e2e: number of node daemons")
	flag.StringVar(&opts.e2eAuthority, "e2e-authority", "", "e2e: path to the jrsnd-authority binary (required with -e2e)")
	flag.StringVar(&opts.e2eDir, "e2e-dir", "", "e2e: working directory for traces and logs (empty = a temp dir, removed on success)")
	flag.Parse()

	code, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jrsnd-node:", err)
	}
	os.Exit(code)
}

// run executes one mode and returns the process exit code (2 = bad
// flags, matching the jrsnd-authority convention).
func run(opts options, out io.Writer) (int, error) {
	if opts.e2e {
		if opts.e2eAuthority == "" {
			return 2, fmt.Errorf("-e2e requires -e2e-authority")
		}
		if opts.e2eNodes < 2 {
			return 2, fmt.Errorf("-e2e-nodes %d: need at least 2", opts.e2eNodes)
		}
		return runE2E(opts, out)
	}
	if opts.authority == "" {
		return 2, fmt.Errorf("-authority is required")
	}
	if opts.nodeID < 0 {
		return 2, fmt.Errorf("-node-id is required (a provisioned slot ID)")
	}
	return serve(opts, out)
}

// parsePeers splits the -peers flag.
func parsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// daemon is one running node: the transport endpoint plus the discovery
// state the sidecar reports.
type daemon struct {
	node     int
	endpoint *transport.Endpoint
	reg      *metrics.Registry
	peers    []string // configured peer addresses
	helloTx  *metrics.Counter
	helloRx  *metrics.Counter

	mu         sync.Mutex
	discovered map[int]bool // peers whose HELLO frame decoded and matched their transport identity
	violations []string
}

// startDaemon provisions against the authority and brings the endpoint
// up. Tests drive it in-process; serve() wraps it in a process.
func startDaemon(opts options, sink trace.Sink) (*daemon, error) {
	client := &authd.Client{Base: opts.authority, ClientID: fmt.Sprintf("jrsnd-node-%d", opts.nodeID)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := client.Node(ctx, opts.nodeID)
	if err != nil {
		return nil, fmt.Errorf("fetching slot %d from the authority: %w", opts.nodeID, err)
	}
	d := &daemon{
		node:       opts.nodeID,
		reg:        metrics.New(),
		peers:      parsePeers(opts.peers),
		discovered: map[int]bool{},
	}
	d.helloTx = d.reg.Counter("jrsnd_node_hello_frames_tx_total", "discovery HELLO frames broadcast")
	d.helloRx = d.reg.Counter("jrsnd_node_hello_frames_rx_total", "discovery HELLO frames received and verified")
	d.endpoint, err = transport.Listen(opts.addr, transport.Config{
		Node:      opts.nodeID,
		Key:       transport.NodeKey(info.Node, info.Codes),
		Directory: transport.NewAuthorityDirectory(client),
		MaxPeers:  opts.maxPeers,
		IdleAfter: opts.idleAfter,
		PingEvery: opts.pingEvery,
		Metrics:   d.reg,
		Trace:     sink,
		OnFrame:   d.onFrame,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// onFrame consumes one frame from an authenticated peer. Under honest
// operation every frame decodes and names its own sender; anything else
// is an invariant violation the e2e harness fails on.
func (d *daemon) onFrame(from int, frame []byte) {
	kind, payload, err := wire.Decode(frame, wire.DefaultLimits())
	if err != nil {
		d.violate("frame from authenticated peer %d rejected by decoder: %v", from, err)
		return
	}
	if kind != wire.KindHello {
		return // this daemon only speaks discovery HELLOs
	}
	hello, ok := payload.(wire.Hello)
	if !ok || int(hello.Initiator) != from {
		d.violate("HELLO from peer %d claims initiator %v", from, payload)
		return
	}
	d.helloRx.Inc()
	d.mu.Lock()
	d.discovered[from] = true
	d.mu.Unlock()
}

func (d *daemon) violate(format string, args ...any) {
	d.mu.Lock()
	d.violations = append(d.violations, fmt.Sprintf(format, args...))
	d.mu.Unlock()
}

// beat runs one beacon tick: re-dial every configured peer (a no-op for
// registered ones — UDP loses handshakes, so dialing retries until the
// peer answers) and broadcast one wire HELLO frame.
func (d *daemon) beat() {
	for _, addr := range d.peers {
		_ = d.endpoint.Dial(addr)
	}
	frame, err := wire.Encode(wire.KindHello, wire.Hello{Initiator: ibc.NodeID(d.node)}, wire.DefaultLimits())
	if err != nil {
		d.violate("encoding own HELLO: %v", err)
		return
	}
	if n, _ := d.endpoint.Broadcast(frame); n > 0 {
		d.helloTx.Inc()
	}
}

// status is the sidecar's JSON report, and what the e2e harness polls.
type status struct {
	Node       int      `json:"node"`
	UDP        string   `json:"udp"`
	Peers      []int    `json:"peers"`
	Discovered []int    `json:"discovered"`
	TxDgrams   uint64   `json:"tx_datagrams"`
	RxDgrams   uint64   `json:"rx_datagrams"`
	Violations []string `json:"violations"`
}

func (d *daemon) status() status {
	d.mu.Lock()
	disc := make([]int, 0, len(d.discovered))
	for id := range d.discovered {
		disc = append(disc, id)
	}
	viol := append([]string(nil), d.violations...)
	d.mu.Unlock()
	sort.Ints(disc)
	if viol == nil {
		viol = []string{}
	}
	return status{
		Node:       d.node,
		UDP:        d.endpoint.Addr(),
		Peers:      d.endpoint.Peers(),
		Discovered: disc,
		TxDgrams:   d.endpoint.TxDatagrams(),
		RxDgrams:   d.endpoint.RxDatagrams(),
		Violations: viol,
	}
}

// handler builds the sidecar mux.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = metrics.WritePrometheus(w, d.reg.Snapshot())
	})
	return mux
}

// serve runs the daemon until SIGTERM/SIGINT.
func serve(opts options, out io.Writer) (int, error) {
	var sink trace.Sink
	if opts.tracePath != "" {
		f, err := os.Create(opts.tracePath)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		jw := trace.NewJSONLWriter(f)
		defer jw.Close()
		sink = jw
	}
	d, err := startDaemon(opts, sink)
	if err != nil {
		return 1, err
	}
	defer d.endpoint.Close()
	fmt.Fprintf(out, "jrsnd-node: node %d listening on udp://%s\n", d.node, d.endpoint.Addr())

	ln, err := net.Listen("tcp", opts.httpAddr)
	if err != nil {
		return 1, err
	}
	srv := &http.Server{Handler: d.handler()}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(out, "jrsnd-node: serving on http://%s\n", ln.Addr())

	ticker := time.NewTicker(opts.beacon)
	defer ticker.Stop()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	d.beat() // first tick now: handshakes start before the first beacon interval elapses
	for {
		select {
		case <-ticker.C:
			d.beat()
		case <-stop:
			fmt.Fprintln(out, "jrsnd-node: draining…")
			d.endpoint.Bye()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			if err := d.endpoint.Close(); err != nil {
				return 1, err
			}
			fmt.Fprintln(out, "jrsnd-node: stopped")
			return 0, nil
		}
	}
}
