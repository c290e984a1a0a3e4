package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// goldenFleetDigest is the sha256 of twelve FleetPlace-shaped fleets
// (see fleetDigest). Changing it means a change altered some fleet's
// decisions or counters; a performance change must leave it alone.
const goldenFleetDigest = "05d22aee8a307e26046e8ab52fe9b866fd678359134f0667dbf06153173f604c"

// fleetDigest hashes, for seeds 1–12 of a 1,024-node fleet in 64-node
// cells on 2 shards over 30 simulated seconds, every Summary counter
// (the cluster pipeline Stats and CacheEntries included) and the full
// decision log. Floats print in their shortest round-trip form, so the
// hash sees every bit.
func fleetDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for seed := int64(1); seed <= 12; seed++ {
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
	if got := fleetDigest(t); got != goldenFleetDigest {
		t.Fatalf("fleet digest %s, golden %s", got, goldenFleetDigest)
	}
}
