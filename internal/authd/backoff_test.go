package authd

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Regression for the wall-clock jitter seed jrsnd-lint flagged at
// client.go: the default backoff source must derive from the client's
// identity, not time.Now, so equal configurations replay identical
// schedules.

func drawSchedule(c *Client, n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	for k := 1; k <= n; k++ {
		out = append(out, c.jitter(k))
	}
	return out
}

func TestClientBackoffDeterministic(t *testing.T) {
	a := &Client{Base: "http://127.0.0.1:1", ClientID: "node-7"}
	b := &Client{Base: "http://127.0.0.1:1", ClientID: "node-7"}
	da := drawSchedule(a, 8)
	db := drawSchedule(b, 8)
	if !reflect.DeepEqual(da, db) {
		t.Fatalf("equal configs drew different schedules:\n%v\n%v", da, db)
	}
	for k, d := range da {
		window := 50 * time.Millisecond << k
		if window > 2*time.Second || window <= 0 {
			window = 2 * time.Second
		}
		if d < 0 || d > window {
			t.Errorf("draw %d = %v outside [0, %v]", k+1, d, window)
		}
	}
}

func TestClientBackoffVariesByIdentity(t *testing.T) {
	a := &Client{Base: "http://127.0.0.1:1", ClientID: "node-7"}
	c := &Client{Base: "http://127.0.0.1:1", ClientID: "node-8"}
	if reflect.DeepEqual(drawSchedule(a, 8), drawSchedule(c, 8)) {
		t.Fatal("different client IDs drew identical schedules; seed ignores identity")
	}
}

func TestClientBackoffInjectedRandWins(t *testing.T) {
	mk := func() *Client {
		return &Client{Base: "http://a", ClientID: "x", Rand: rand.New(rand.NewSource(42))}
	}
	if !reflect.DeepEqual(drawSchedule(mk(), 5), drawSchedule(mk(), 5)) {
		t.Fatal("injected Rand is not honored")
	}
}

// TestClientBackoffSchedulePinned pins the default jitter source: the
// seed hashes Base‖0x00‖ClientID, so this pair's first eight draws must
// never move.
func TestClientBackoffSchedulePinned(t *testing.T) {
	c := &Client{Base: "http://127.0.0.1:7946", ClientID: "node-7"}
	want := []time.Duration{12345676, 22595253, 94721413, 6516465, 449403011, 1412722547, 847808329, 487314117}
	if got := drawSchedule(c, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("jitter schedule moved:\n got %#v\nwant %#v", got, want)
	}
}
