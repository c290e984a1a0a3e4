package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"clite/internal/faults"
	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/telemetry"
)

// smallOpts is a fleet small enough for unit tests: four cells, a few
// simulated seconds, a handful of arrivals.
func smallOpts(seed int64, shards int) Options {
	return Options{
		Nodes:     128,
		CellNodes: 32,
		Shards:    shards,
		Seed:      seed,
		Duration:  6,
		Epoch:     1,
		Traffic:   Traffic{Rate: 2},
	}
}

// runFleet executes one fleet and returns its summary plus the JSONL
// rendering of its trace.
func runFleet(t *testing.T, opts Options) (Summary, []byte) {
	t.Helper()
	tr := telemetry.NewTracer()
	opts.Trace = tr
	f, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sum, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return sum, buf.Bytes()
}

func TestFleetSmoke(t *testing.T) {
	sum, trace := runFleet(t, smallOpts(42, 2))
	if sum.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if sum.Placements == 0 {
		t.Fatal("no placements committed")
	}
	if sum.Placements > sum.Arrivals+sum.Retries {
		t.Fatalf("placements %d exceed arrivals %d + retries %d",
			sum.Placements, sum.Arrivals, sum.Retries)
	}
	if sum.Cells != 4 || sum.Nodes != 128 {
		t.Fatalf("geometry: got %d cells over %d nodes", sum.Cells, sum.Nodes)
	}
	if len(sum.Decisions) != sum.Placements {
		t.Fatalf("decision log has %d entries for %d placements",
			len(sum.Decisions), sum.Placements)
	}
	for _, d := range sum.Decisions {
		if d.Node < 0 || d.Node >= sum.Nodes {
			t.Fatalf("decision for job %d names node %d outside the fleet", d.Job, d.Node)
		}
		if got := d.Node / 32; got != d.Cell {
			t.Fatalf("decision for job %d: node %d is in cell %d, decision says %d",
				d.Job, d.Node, got, d.Cell)
		}
		if d.Attempt < 1 {
			t.Fatalf("decision for job %d has attempt %d", d.Job, d.Attempt)
		}
		if d.Load > 0 && !d.QoSOK {
			t.Fatalf("LC job %d (%s@%v) admitted without QoS", d.Job, d.Workload, d.Load)
		}
	}
	if len(trace) == 0 {
		t.Fatal("empty trace stream")
	}
	counts := telemetry.CountKinds(mustEvents(t, trace))
	for _, kind := range []string{telemetry.KindJobArrival, telemetry.KindFleetEpoch} {
		if counts[kind] == 0 {
			t.Fatalf("trace has no %s events (kinds: %v)", kind, counts)
		}
	}
}

// mustEvents reparses a JSONL trace into events — enough structure
// for kind counting.
func mustEvents(t *testing.T, jsonl []byte) []telemetry.Event {
	t.Helper()
	var events []telemetry.Event
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var ev telemetry.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("parse trace line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestFleetShardInvariance is the fleet's headline contract: the
// decision log and the full telemetry trace are byte-identical
// whatever the shard count, because shards only decide which cells
// place concurrently, never what any cell decides.
func TestFleetShardInvariance(t *testing.T) {
	baseSum, baseTrace := runFleet(t, smallOpts(7, 1))
	if baseSum.Placements == 0 {
		t.Fatal("baseline placed nothing; the invariance check would be vacuous")
	}
	for _, shards := range []int{2, 4} {
		sum, trace := runFleet(t, smallOpts(7, shards))
		if !reflect.DeepEqual(sum.Decisions, baseSum.Decisions) {
			t.Fatalf("%d shards diverged from 1 shard: %d vs %d decisions",
				shards, len(sum.Decisions), len(baseSum.Decisions))
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Fatalf("%d-shard trace stream is not byte-identical to 1 shard", shards)
		}
		if sum.Cluster != baseSum.Cluster {
			t.Fatalf("%d-shard pipeline counters diverged: %+v vs %+v",
				shards, sum.Cluster, baseSum.Cluster)
		}
	}
}

// TestFleetSeededReplay checks the other half of determinism: the
// same seed replays byte-identically, a different seed does not.
func TestFleetSeededReplay(t *testing.T) {
	_, a := runFleet(t, smallOpts(11, 2))
	_, b := runFleet(t, smallOpts(11, 2))
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds produced different trace streams")
	}
	_, c := runFleet(t, smallOpts(12, 2))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical trace streams")
	}
}

func TestFleetTrafficShapes(t *testing.T) {
	for _, shape := range []Shape{ShapeDiurnal, ShapeBursty, ShapeHeavyTail} {
		opts := smallOpts(5, 2)
		opts.Traffic.Shape = shape
		sum, _ := runFleet(t, opts)
		if sum.Arrivals == 0 {
			t.Fatalf("shape %s generated no arrivals", shape)
		}
	}
}

// TestFleetDeaths drives a fleet through node deaths and checks the
// job accounting stays closed: every displaced job is rehomed,
// re-placed, rejected, or lost — never silently dropped — and the
// death schedule itself replays deterministically.
func TestFleetDeaths(t *testing.T) {
	opts := smallOpts(3, 2)
	opts.Duration = 8
	opts.Deaths = faults.FleetPlan{Seed: 3, DeathRate: 0.75, MaxDeaths: 4}
	sum, trace := runFleet(t, opts)
	if sum.Deaths == 0 {
		t.Fatal("death plan scheduled nothing")
	}
	if sum.Deaths > 4 {
		t.Fatalf("MaxDeaths=4 but %d nodes died", sum.Deaths)
	}
	sum2, trace2 := runFleet(t, opts)
	if !bytes.Equal(trace, trace2) {
		t.Fatal("fleet with deaths did not replay byte-identically")
	}
	if sum.Rehomed != sum2.Rehomed || sum.Lost != sum2.Lost {
		t.Fatalf("death outcomes did not replay: %d/%d rehomed, %d/%d lost",
			sum.Rehomed, sum2.Rehomed, sum.Lost, sum2.Lost)
	}

	// Replay once more, auditing every cell's incremental node state
	// against its request lists after each departure and at each epoch
	// barrier, the sequential points where no cell is mid-placement.
	tr := telemetry.NewTracer()
	opts.Trace = tr
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	audits := 0
	var auditErr error
	tr.SetTap(func(ev telemetry.Event) {
		if auditErr != nil || (ev.Kind != telemetry.KindJobDeparture && ev.Kind != telemetry.KindFleetEpoch) {
			return
		}
		audits++
		for _, c := range f.cells {
			if err := c.sched.Audit(); err != nil {
				auditErr = fmt.Errorf("cell %d after %s event: %w", c.index, ev.Kind, err)
				return
			}
		}
	})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if auditErr != nil {
		t.Fatal(auditErr)
	}
	if audits == 0 {
		t.Fatal("no audit ran")
	}
}

// TestFleetSharedProfiles runs two fleets over one hub cache: the
// second inherits the first's screening memos, so it screens less.
func TestFleetSharedProfiles(t *testing.T) {
	opts := smallOpts(21, 2)
	first, _ := runFleet(t, opts)
	if first.CacheEntries == 0 {
		t.Fatal("first fleet cached nothing")
	}

	hub := warmHub(t, opts)
	opts2 := opts
	opts2.SharedProfiles = hub
	second, _ := runFleet(t, opts2)
	if second.CacheEntries < first.CacheEntries {
		t.Fatalf("shared hub shrank: %d < %d", second.CacheEntries, first.CacheEntries)
	}
	if second.Cluster.CacheHits+second.Cluster.CacheNearHits <= first.Cluster.CacheHits+first.Cluster.CacheNearHits {
		t.Fatalf("warm hub produced no extra cache hits: %d vs %d",
			second.Cluster.CacheHits+second.Cluster.CacheNearHits,
			first.Cluster.CacheHits+first.Cluster.CacheNearHits)
	}
}

// warmHub pre-warms a hub cache by running one fleet against it.
func warmHub(t *testing.T, opts Options) *profile.Cache {
	t.Helper()
	hub := profile.NewCache(resource.Default())
	opts.SharedProfiles = hub
	f, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return hub
}

func TestFleetOptionValidation(t *testing.T) {
	bad := smallOpts(1, 1)
	bad.Traffic.Shape = "square-wave"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown traffic shape accepted")
	}
	bad = smallOpts(1, 1)
	bad.Deaths = faults.FleetPlan{DeathRate: -1}
	if _, err := New(bad); err == nil {
		t.Fatal("negative death rate accepted")
	}
	f, err := New(smallOpts(1, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("second Run on the same Fleet accepted")
	}
}
