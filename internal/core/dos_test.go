package core

import (
	"testing"

	"repro/internal/sim"
)

// dosNetwork builds a cluster where node `attackerIdx` is compromised.
func dosNetwork(t *testing.T, n, m, l, gamma int, seed int64) *Network {
	t.Helper()
	p := smallParams(n, m)
	p.L = l
	p.Gamma = gamma
	net, err := NewNetwork(NetworkConfig{
		Params:    p,
		Seed:      seed,
		Jammer:    JamNone,
		Positions: clusterPositions(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Compromise([]int{n - 1}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDoSAttackForcesVerificationWork(t *testing.T) {
	net := dosNetwork(t, 6, 4, 6, 1000, 21) // γ huge: no revocation kicks in
	report, err := net.RunDoSAttack(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Injected == 0 {
		t.Fatal("attack injected nothing")
	}
	// Without effective revocation every injection costs a key computation
	// and a failed MAC verification.
	if report.MACVerifications != report.Injected {
		t.Fatalf("MAC verifications = %d, want %d (one per injection)",
			report.MACVerifications, report.Injected)
	}
	if report.MACFailures != report.Injected {
		t.Fatalf("MAC failures = %d, want %d", report.MACFailures, report.Injected)
	}
	if report.KeyComputations != report.Injected {
		t.Fatalf("key computations = %d, want %d (fresh forged identity each time)",
			report.KeyComputations, report.Injected)
	}
	if report.RevokedCodes != 0 {
		t.Fatalf("revoked %d codes with γ=1000", report.RevokedCodes)
	}
}

func TestDoSAttackBoundedByRevocation(t *testing.T) {
	// §V-D: with threshold γ, a compromised code can burn at most γ+1
	// verifications per victim before it is locally revoked.
	const gamma = 3
	net := dosNetwork(t, 6, 4, 6, gamma, 22)
	report, err := net.RunDoSAttack(5, 50) // many rounds; most must be ignored
	if err != nil {
		t.Fatal(err)
	}
	// 5 honest victims × 4 codes × (γ+1) is the hard bound on forced
	// verifications (the attacker reuses the same 4 codes every round).
	bound := 5 * 4 * (gamma + 1)
	if report.MACVerifications > bound {
		t.Fatalf("MAC verifications = %d exceed the (l−1)·γ-style bound %d",
			report.MACVerifications, bound)
	}
	if report.MACVerifications >= report.Injected {
		t.Fatalf("revocation saved nothing: %d verifications for %d injections",
			report.MACVerifications, report.Injected)
	}
	if report.RevokedCodes == 0 {
		t.Fatal("no codes were revoked despite sustained attack")
	}
	// Every victim ends up revoking all four attacker codes.
	if want := 5 * 4; report.RevokedCodes != want {
		t.Fatalf("revoked codes = %d, want %d", report.RevokedCodes, want)
	}
}

func TestDoSRevokedCodesStayUsableForOthers(t *testing.T) {
	// Local revocation must not poison discovery between honest nodes on
	// other codes: with l = n every code is shared, so after the attack
	// revokes the attacker's codes... which is the whole pool here. Use a
	// sparser pool (l < n) so honest pairs keep clean codes.
	net := dosNetwork(t, 8, 6, 2, 2, 23)
	if _, err := net.RunDoSAttack(7, 30); err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	// At least one honest pair with a clean shared code must discover.
	found := false
	for a := 0; a < 7 && !found; a++ {
		for b := a + 1; b < 7 && !found; b++ {
			if net.DiscoveredPair(a, b) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("DoS attack plus revocation wiped out all honest discovery")
	}
}

func TestDoSAttackerCrashMidWaveStopsInjecting(t *testing.T) {
	// Churn meets DoS: crash the attacker between waves. Waves scheduled
	// past the crash must transmit nothing, and the report must account
	// only frames that actually hit the air.
	const rounds = 4
	net := dosNetwork(t, 4, 5, 4, 1000, 25)
	p := net.Params()
	// Waves fire at 0, t_key, 2·t_key, 3·t_key; crash at 1.5·t_key, so
	// exactly the first two waves transmit.
	if _, err := net.Engine().Schedule(sim.Time(1.5*p.TKey), func() {
		_ = net.CrashNode(3)
	}); err != nil {
		t.Fatal(err)
	}
	report, err := net.RunDoSAttack(3, rounds)
	if err != nil {
		t.Fatal(err)
	}
	perWave := len(net.Node(3).codes) * 3 // every victim holds every code here
	if want := 2 * perWave; report.Injected != want {
		t.Fatalf("injected = %d after mid-attack crash, want %d (2 of %d waves)",
			report.Injected, want, rounds)
	}
	if report.MACVerifications != report.Injected {
		t.Fatalf("MAC verifications = %d, want %d: victims must only pay for frames on the air",
			report.MACVerifications, report.Injected)
	}
}

func TestDoSValidation(t *testing.T) {
	net := dosNetwork(t, 4, 3, 4, 5, 24)
	if _, err := net.RunDoSAttack(99, 1); err == nil {
		t.Fatal("accepted out-of-range attacker")
	}
	if _, err := net.RunDoSAttack(0, 1); err == nil {
		t.Fatal("accepted non-compromised attacker")
	}
	if _, err := net.RunDoSAttack(3, 0); err == nil {
		t.Fatal("accepted zero rounds")
	}
}

func TestDoSRefusesForgedIDOverflow(t *testing.T) {
	// 5 victims × 4 codes = 20 forged identities per wave: 800 waves need
	// 16,000, more than the 15,536 between adversary.ForgedIDBase and the
	// top of the 16-bit ID space. The attack must be refused up front
	// rather than wrap into honest IDs.
	net := dosNetwork(t, 6, 4, 6, 1000, 26)
	if _, err := net.RunDoSAttack(5, 800); err == nil {
		t.Fatal("accepted a flood that exhausts the forged-ID space")
	}
	if net.Engine().Pending() != 0 {
		t.Fatalf("refused flood left %d events scheduled", net.Engine().Pending())
	}
	if tx := net.MediumStats().Transmissions; tx != 0 {
		t.Fatalf("refused flood transmitted %d frames", tx)
	}
}
