package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clite"
	"clite/internal/cluster"
	"clite/internal/par"
	"clite/internal/replica"
)

// testGroup builds a small, fast 3-replica group for handler tests.
func testGroup(t *testing.T, lease float64) (*replica.Group, *clite.MetricsRegistry) {
	t.Helper()
	reg := clite.NewMetrics()
	g, err := clite.NewReplicaGroup(clite.ReplicaGroupOptions{
		Scheduler: clite.SchedulerOptions{
			Nodes:            2,
			Seed:             7,
			ScreenIterations: 12,
			ScreenWorkers:    1,
		},
		Lease:   lease,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, reg
}

// testStore mirrors run()'s observability wiring for handler tests.
func testStore(nodes int, reg *clite.MetricsRegistry) *clite.SLOStore {
	store := clite.NewSLOStore(clite.SLOOptions{})
	store.BindRegistry(reg)
	store.RegisterCells(nodes)
	return store
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDaemonServesPlacementsAndIntrospection(t *testing.T) {
	g, reg := testGroup(t, 5)
	srv := httptest.NewServer(newHandler(g, reg, testStore(2, reg)))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "memcached", Load: 0.2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d, want 200", resp.StatusCode)
	}
	placed := decodeBody[placeResponse](t, resp)
	if placed.Node < 0 || placed.Samples <= 0 {
		t.Fatalf("place returned %+v, want a screened node", placed)
	}

	st := decodeBody[replica.Status](t, mustGet(t, srv.URL+"/v1/status"))
	if st.Leader != 0 || st.Term != 1 || st.Commands != 1 || st.Alive != 3 {
		t.Fatalf("status = %+v, want leader 0 term 1 with 1 command", st)
	}

	snap := decodeBody[[]cluster.NodeInfo](t, mustGet(t, srv.URL+"/v1/snapshot"))
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d nodes, want 2", len(snap))
	}
	hosted := 0
	for _, n := range snap {
		hosted += len(n.Jobs)
	}
	if hosted != 1 {
		t.Fatalf("snapshot hosts %d jobs, want 1", hosted)
	}

	metricsResp := mustGet(t, srv.URL+"/metrics")
	defer metricsResp.Body.Close()
	var sb strings.Builder
	if _, err := sb.WriteString(readAll(t, metricsResp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "replica_commands_total 1") {
		t.Fatalf("metrics exposition missing replica_commands_total:\n%s", sb.String())
	}

	// The SLO plane's live views track the committed placement.
	sloResp := mustGet(t, srv.URL+"/slo")
	sloText := readAll(t, sloResp)
	sloResp.Body.Close()
	if !strings.Contains(sloText, "windows") || !strings.Contains(sloText, "alerts") {
		t.Fatalf("/slo missing the windows subject or alert total:\n%s", sloText)
	}
	cellsResp := mustGet(t, srv.URL+"/cells")
	cellsText := readAll(t, cellsResp)
	cellsResp.Body.Close()
	if !strings.Contains(cellsText, "fleet    placed=1") {
		t.Fatalf("/cells does not account the placement:\n%s", cellsText)
	}

	// Malformed bodies are 400, not 500.
	resp, err := http.Post(srv.URL+"/v1/place", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: status %d, want 200", url, resp.StatusCode)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFailoverOverHTTP(t *testing.T) {
	g, reg := testGroup(t, 5)
	srv := httptest.NewServer(newHandler(g, reg, testStore(2, reg)))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/kill", map[string]int{"replica": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// During the election the daemon answers 503 + retryable so HTTP
	// clients know backing off will succeed.
	resp = postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "memcached", Load: 0.2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("place during election: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("election 503 is missing Retry-After")
	}
	ae := decodeBody[apiError](t, resp)
	if !ae.Retryable {
		t.Fatalf("election 503 not marked retryable: %+v", ae)
	}

	// Let the lease expire; the survivors elect and writes resume.
	resp = postJSON(t, srv.URL+"/v1/advance", map[string]float64{"seconds": 10})
	st := decodeBody[replica.Status](t, resp)
	if st.Leader != 1 || st.Term != 2 {
		t.Fatalf("after lease expiry: status %+v, want leader 1 term 2", st)
	}
	resp = postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "memcached", Load: 0.2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place after failover: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestQuorumLossOverHTTP(t *testing.T) {
	g, reg := testGroup(t, 5)
	srv := httptest.NewServer(newHandler(g, reg, testStore(2, reg)))
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "swaptions"}).Body.Close()
	postJSON(t, srv.URL+"/v1/kill", map[string]int{"replica": 1}).Body.Close()
	postJSON(t, srv.URL+"/v1/kill", map[string]int{"replica": 2}).Body.Close()

	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "memcached", Load: 0.2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded place: status %d, want 503", resp.StatusCode)
	}
	ae := decodeBody[apiError](t, resp)
	if ae.Retryable {
		t.Fatalf("quorum loss must not be retryable: %+v", ae)
	}

	// Reads keep serving from the last committed snapshot.
	snap := decodeBody[[]cluster.NodeInfo](t, mustGet(t, srv.URL+"/v1/snapshot"))
	hosted := 0
	for _, n := range snap {
		hosted += len(n.Jobs)
	}
	if hosted != 1 {
		t.Fatalf("degraded snapshot hosts %d jobs, want the 1 committed before quorum loss", hosted)
	}
	st := decodeBody[replica.Status](t, mustGet(t, srv.URL+"/v1/status"))
	if !st.Degraded {
		t.Fatalf("status = %+v, want Degraded", st)
	}
}

func TestHTTPClientRetriesThroughFailover(t *testing.T) {
	// Short lease so the wall-clock retry loop (attempt → 503 → backoff)
	// carries the group past the election: every attempted submission
	// advances the simulated clock by one request interval.
	g, reg := testGroup(t, 2)
	srv := httptest.NewServer(newHandler(g, reg, testStore(2, reg)))
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/kill", map[string]int{"replica": 0}).Body.Close()

	out, err := callWithRetry(srv.URL, http.MethodPost, "/v1/place",
		placeRequest{Workload: "memcached", Load: 0.2}, 8, 30*time.Second)
	if err != nil {
		t.Fatalf("callWithRetry: %v", err)
	}
	var placed placeResponse
	if err := json.Unmarshal([]byte(out), &placed); err != nil {
		t.Fatal(err)
	}
	if placed.Node < 0 {
		t.Fatalf("retried place landed nowhere: %+v", placed)
	}
	if got := reg.Counter("replica_noleader_rejects_total").Value(); got == 0 {
		t.Error("client never hit the election window; the retry path was not exercised")
	}
}

func TestFailNodeOverHTTP(t *testing.T) {
	g, reg := testGroup(t, 5)
	srv := httptest.NewServer(newHandler(g, reg, testStore(2, reg)))
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "memcached", Load: 0.2}).Body.Close()
	resp := postJSON(t, srv.URL+"/v1/failnode", failNodeRequest{Node: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failnode: status %d, want 200", resp.StatusCode)
	}
	outcomes := decodeBody[[]rehomeOutcome](t, resp)
	snap := decodeBody[[]cluster.NodeInfo](t, mustGet(t, srv.URL+"/v1/snapshot"))
	if !snap[0].Failed {
		t.Fatalf("node 0 not marked failed in snapshot: %+v", snap[0])
	}
	// Whether the job was on node 0 depends on the seed; the endpoint's
	// contract is that every drained job appears in the outcome list.
	for _, o := range outcomes {
		if o.From != 0 {
			t.Fatalf("outcome drained from node %d, want 0: %+v", o.From, o)
		}
	}
}

// TestGracefulShutdown drives the real run() entrypoint: SIGTERM must
// drain the server, flush the trace JSONL, and return nil (exit 0).
func TestGracefulShutdown(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var mu sync.Mutex
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-screen-iters", "12", "-screen-workers", "1",
			"-trace", tracePath,
		}, lockedWriter{&mu, &out})
	}()

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		started := strings.Contains(out.String(), "serving on")
		mu.Unlock()
		if started {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before signal: %v", err)
		case <-deadline:
			t.Fatal("daemon never reported it was serving")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s of SIGTERM")
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace JSONL not flushed: %v", err)
	}
	if !strings.Contains(string(data), "leader-elected") {
		t.Fatalf("trace JSONL missing the initial election event:\n%s", data)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("missing clean-shutdown report:\n%s", out.String())
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestPanickingHandlerIsNotRetried pins recoverPanics: a route that
// panics (here with the *par.Panic a crashed screening worker
// surfaces) answers 500 with {"retryable":false}, so callWithRetry
// gives up after exactly one request instead of re-submitting a
// command replicas may already have applied. http.ErrAbortHandler
// still aborts the response.
func TestPanickingHandlerIsNotRetried(t *testing.T) {
	var requests atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		panic(&par.Panic{Index: 3, Value: "screening worker crashed"})
	})
	mux.HandleFunc("GET /abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(recoverPanics(mux))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{Workload: "memcached", Load: 0.3})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route: status %d, want 500", resp.StatusCode)
	}
	if ae := decodeBody[apiError](t, resp); ae.Retryable || ae.Error == "" {
		t.Fatalf("panicking route must answer a non-retryable error: %+v", ae)
	}

	requests.Store(0)
	_, err := callWithRetry(srv.URL, http.MethodPost, "/v1/place", placeRequest{Workload: "memcached", Load: 0.3}, 5, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("callWithRetry against a panicking route: %v, want a 500 error", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("callWithRetry sent %d requests to a panicking route, want 1", n)
	}

	if resp, err := http.Get(srv.URL + "/abort"); err == nil {
		resp.Body.Close()
		t.Fatalf("ErrAbortHandler answered status %d; the connection should be dropped", resp.StatusCode)
	}
}
