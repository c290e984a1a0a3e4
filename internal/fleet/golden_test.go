package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// goldenFleetDigest is the sha256 of twelve FleetPlace-shaped fleets
// (see fleetDigest). Changing it means a change altered some fleet's
// decisions or counters; a performance change must leave it alone.
const goldenFleetDigest = "05d22aee8a307e26046e8ab52fe9b866fd678359134f0667dbf06153173f604c"

// fleetDigest hashes, for seeds from–to of a 1,024-node fleet in
// 64-node cells on 2 shards over 30 simulated seconds, every Summary
// counter (the cluster pipeline Stats and CacheEntries included) and
// the full decision log. Floats print in their shortest round-trip
// form, so the hash sees every bit.
func fleetDigest(t *testing.T, from, to int64) string {
	t.Helper()
	h := sha256.New()
	for seed := from; seed <= to; seed++ {
		f, err := New(Options{Nodes: 1024, CellNodes: 64, Shards: 2, Seed: seed, Duration: 30})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		decisions := sum.Decisions
		sum.Decisions = nil
		fmt.Fprintf(h, "%+v\n", sum)
		for _, d := range decisions {
			fmt.Fprintf(h, "%+v\n", d)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetGoldenDigest pins the decisions and counters of twelve
// fleets to a recorded digest: fleet identity across a change is this
// one comparison. The value is recorded on amd64; other architectures
// may fuse floating-point operations differently, so it is checked
// there only.
func TestFleetGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	if got := fleetDigest(t, 1, 12); got != goldenFleetDigest {
		t.Fatalf("fleet digest %s, golden %s", got, goldenFleetDigest)
	}
}

// coldFleetEnv, set in a child test process, makes
// TestFleetDigestWarmOrCold print the digest of its first fleet.
const coldFleetEnv = "CLITE_COLD_FLEET_DIGEST"

// TestFleetDigestWarmOrCold checks that the process memo of
// calibrations and solo profiles never shows in a decision: seed 7
// digests the same when it is the first fleet of a fresh process,
// where every calibration and solo profile is computed cold, as when
// it runs after other fleets filled the memo.
func TestFleetDigestWarmOrCold(t *testing.T) {
	if os.Getenv(coldFleetEnv) != "" {
		fmt.Println("digest", fleetDigest(t, 7, 7))
		return
	}
	fleetDigest(t, 1, 3)
	warm := fleetDigest(t, 7, 7)
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetDigestWarmOrCold$", "-test.count=1")
	cmd.Env = append(os.Environ(), coldFleetEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cold fleet process: %v\n%s", err, out)
	}
	var cold string
	for _, line := range strings.Split(string(out), "\n") {
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			cold = d
		}
	}
	if cold != warm {
		t.Fatalf("seed 7 digests %q in a fresh process, %s after other fleets", cold, warm)
	}
}
