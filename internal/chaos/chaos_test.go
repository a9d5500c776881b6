package chaos

import (
	"flag"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/leaktest"
)

// The flags turn a failure line back into a single-case run:
//
//	go test ./internal/chaos -run 'TestChaos$' -chaos-seed=S -chaos-at=K -chaos-kind=crash
var (
	chaosOps  = flag.Int("chaos-ops", 0, "cap on injected crash cases (0 = every op of the reference run)")
	chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed")
	chaosAt   = flag.Int64("chaos-at", 0, "inject at exactly this op index (reproduction mode; 0 = sweep)")
	chaosKind = flag.String("chaos-kind", "crash", "fault kind: err, short, torn, crash")
	// chaosSeeds turns TestChaosSoak on:
	//
	//	go test ./internal/chaos -run TestChaosSoak -chaos-seeds 5 [-chaos-seed S] [-chaos-ops K] -timeout 120m
	chaosSeeds = flag.Int("chaos-seeds", 0, "TestChaosSoak: consecutive seeds to sweep from -chaos-seed (0 = skip the soak)")
)

func chaosConfig(t *testing.T) Config {
	t.Helper()
	kind, err := faultfs.ParseFaultKind(*chaosKind)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Seed: *chaosSeed, MaxCases: *chaosOps, At: *chaosAt, Kind: kind, Logf: t.Logf}
}

// TestChaos is the crash sweep: power cut at every counted I/O op of
// the reference run (or the -chaos-ops/-chaos-at subset), recovery
// verified for each.
func TestChaos(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	cfg := chaosConfig(t)
	if testing.Short() && cfg.MaxCases == 0 && cfg.At == 0 {
		cfg.MaxCases = 12
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: %d/%d cases fired over %d reference ops", rep.Fired, rep.Cases, rep.RefOps)
	if cfg.At == 0 && rep.Fired == 0 {
		t.Fatal("sweep injected faults but none fired; harness is not aiming at the I/O path")
	}
}

// kindSweep runs a bounded sweep of a non-crash fault kind; crash
// coverage is TestChaos's job.
func kindSweep(t *testing.T, kind faultfs.FaultKind) {
	t.Cleanup(leaktest.Check(t))
	cfg := chaosConfig(t)
	cfg.Kind = kind
	if cfg.At == 0 {
		cfg.MaxCases = 8
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.At == 0 && rep.Fired == 0 {
		t.Fatalf("no %s fault fired across %d cases", kind, rep.Cases)
	}
}

// TestChaosTransientErrors: a store that intermittently fails must
// degrade durability, never the computation.
func TestChaosTransientErrors(t *testing.T) { kindSweep(t, faultfs.FaultErr) }

// TestChaosShortWrites: interrupted writes land in temp files only;
// the atomic-rename discipline keeps every visible file whole.
func TestChaosShortWrites(t *testing.T) { kindSweep(t, faultfs.FaultShortWrite) }

// TestChaosENOSPC: a disk that fills mid-run must degrade durability —
// the job finishes bit-exact — and once space is freed the probe must
// restore persistence well enough to survive a power cut.
func TestChaosENOSPC(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	cfg := chaosConfig(t)
	if cfg.At == 0 {
		cfg.MaxCases = 8
	}
	rep, err := RunENOSPC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: %d/%d ENOSPC cases fired over %d reference ops", rep.Fired, rep.Cases, rep.RefOps)
	if cfg.At == 0 && rep.Fired == 0 {
		t.Fatalf("no ENOSPC fault fired across %d cases", rep.Cases)
	}
}

// TestChaosTornWrites: silent single-byte corruption must be *caught*
// (CRC on journal records, checksum verify on checkpoints) and fallen
// back from — never trusted.
func TestChaosTornWrites(t *testing.T) { kindSweep(t, faultfs.FaultTornWrite) }

// TestChaosHookPoints crashes at the named scheduling seams above the
// store (async checkpoint swap/write, journal append, recovery
// replay), including the crash-during-recovery double fault.
func TestChaosHookPoints(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	if err := RunHooks(Config{Seed: *chaosSeed, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoak is the long-running soak (on demand; see
// .github/workflows/chaos-soak.yml): for each of -chaos-seeds seeds it
// sweeps every fault kind across the reference run's I/O schedule
// (-chaos-ops caps the cases per kind) and then the hook-point power
// cuts. The first failure stops it; the harness's error is already a
// one-line reproduction recipe (seed, op index, fault kind).
func TestChaosSoak(t *testing.T) {
	if *chaosSeeds <= 0 {
		t.Skip("soak runs only with -chaos-seeds N")
	}
	t.Cleanup(leaktest.Check(t))
	kinds := []faultfs.FaultKind{
		faultfs.FaultCrash, faultfs.FaultErr, faultfs.FaultShortWrite, faultfs.FaultTornWrite,
	}
	total := 0
	for seed := *chaosSeed; seed < *chaosSeed+int64(*chaosSeeds); seed++ {
		for _, kind := range kinds {
			rep, err := Run(Config{Seed: seed, Kind: kind, MaxCases: *chaosOps})
			if err != nil {
				t.Fatal(err)
			}
			total += rep.Cases
			t.Logf("chaos: seed=%d kind=%-5s %3d/%3d cases fired over %d ref ops", seed, kind, rep.Fired, rep.Cases, rep.RefOps)
		}
		if err := RunHooks(Config{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		t.Logf("chaos: seed=%d hook-point crashes passed", seed)
	}
	t.Logf("chaos: soak clean: %d seeds, %d injected cases", *chaosSeeds, total)
}
