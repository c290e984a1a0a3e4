// Command clited runs the CLITE scheduler as a long-running service: a
// replicated control plane (2+ controller replicas applying the same
// deterministic command log, leader failover on simulated-time lease
// expiry) behind an HTTP/JSON API.
//
// Start a daemon:
//
//	clited -addr :8080 -replicas 3 -nodes 4 -seed 42
//
// and drive it:
//
//	curl -XPOST localhost:8080/v1/place -d '{"workload":"memcached","load":0.3}'
//	curl -XPOST localhost:8080/v1/failnode -d '{"node":0}'
//	curl localhost:8080/v1/status
//	curl localhost:8080/v1/snapshot
//	curl localhost:8080/metrics
//	curl localhost:8080/slo
//	curl localhost:8080/cells
//
// /metrics is the Prometheus text exposition; /slo and /cells are the
// SLO observability plane's live views (deterministic text: error
// budget burn per subject, per-node placement rollups), fed from the
// replica group's tracer tap and per-placement samples stamped with
// the group's simulated clock.
//
// Admin endpoints /v1/kill (kill a controller replica) and /v1/advance
// (advance the simulated clock) exist to exercise failover from the
// outside. Write requests that arrive during an election return 503
// with a Retry-After header and {"retryable":true}; requests after
// quorum loss return 503 with {"retryable":false} — the group is
// read-only until restarted. SIGINT/SIGTERM drains in-flight requests,
// flushes the -trace JSONL timeline, and exits 0.
//
// Client mode issues one request against a running daemon with
// capped-exponential-backoff retry and a wall-clock deadline:
//
//	clited -call place -to http://localhost:8080 -workload memcached -load 0.3
//	clited -call failnode -to http://localhost:8080 -node 0
//	clited -call status -to http://localhost:8080
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clite"
	"clite/internal/cluster"
	"clite/internal/replica"
	"clite/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clited:", err)
		os.Exit(1)
	}
}

// deathTimes collects repeated -leader-death-at flags.
type deathTimes []float64

func (d *deathTimes) String() string {
	var s []string
	for _, t := range *d {
		s = append(s, strconv.FormatFloat(t, 'g', -1, 64))
	}
	return strings.Join(s, ",")
}

func (d *deathTimes) Set(v string) error {
	t, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("bad -leader-death-at %q: %w", v, err)
	}
	*d = append(*d, t)
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("clited", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	replicas := fs.Int("replicas", 3, "controller replicas (2..7)")
	nodes := fs.Int("nodes", 4, "cluster nodes behind the scheduler")
	seed := fs.Int64("seed", 1, "deterministic seed shared by every replica")
	lease := fs.Float64("lease", 5, "leader lease in simulated seconds (bounds the failover window)")
	reqInterval := fs.Float64("request-interval", 1, "simulated seconds the clock advances per command")
	screenIters := fs.Int("screen-iters", 0, "BO budget per screening run (0 = default)")
	screenWorkers := fs.Int("screen-workers", 0, "concurrent screening workers per replica (0 = NumCPU)")
	traceOut := fs.String("trace", "", "write the replica-group telemetry timeline as JSONL on shutdown")
	var deaths deathTimes
	fs.Var(&deaths, "leader-death-at", "simulated time at which the current leader dies (repeatable)")
	deathRate := fs.Float64("death-rate", 0, "per-command probability the leader dies after serving")
	rpcLoss := fs.Float64("rpc-loss", 0, "per-request probability a submission is lost in flight")
	rpcDelay := fs.Float64("rpc-delay", 0, "per-request probability a submission is delayed")
	faultSeed := fs.Int64("fault-seed", 0, "control-fault stream seed (defaults to -seed)")

	call := fs.String("call", "", "client mode: place, failnode, status, snapshot")
	to := fs.String("to", "http://localhost:8080", "client mode: daemon base URL")
	workloadF := fs.String("workload", "", "client mode: workload name for -call place")
	load := fs.Float64("load", 0, "client mode: LC load for -call place (0 = background job)")
	node := fs.Int("node", 0, "client mode: node id for -call failnode")
	attempts := fs.Int("attempts", 8, "client mode: max attempts per request")
	timeout := fs.Duration("timeout", 30*time.Second, "client mode: wall-clock deadline across all retries")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *call != "" {
		return clientCall(out, *to, *call, *workloadF, *load, *node, *attempts, *timeout)
	}

	tr := clite.NewTracer()
	reg := clite.NewMetrics()
	store := clite.NewSLOStore(clite.SLOOptions{})
	store.BindRegistry(reg)
	store.RegisterCells(*nodes) // one obs "cell" per cluster node
	tr.SetTap(store.Sink())
	plan := clite.ControlFaultPlan{
		Seed:          *faultSeed,
		LeaderDeathAt: deaths,
		DeathRate:     *deathRate,
		RPCLoss:       *rpcLoss,
		RPCDelay:      *rpcDelay,
	}
	if plan.Seed == 0 {
		plan.Seed = *seed
	}
	g, err := clite.NewReplicaGroup(clite.ReplicaGroupOptions{
		Replicas: *replicas,
		Scheduler: clite.SchedulerOptions{
			Nodes:            *nodes,
			Seed:             *seed,
			ScreenIterations: *screenIters,
			ScreenWorkers:    *screenWorkers,
		},
		Lease:           *lease,
		RequestInterval: *reqInterval,
		Faults:          plan,
		Trace:           tr,
		Metrics:         reg,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(g, reg, store),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(out, "clited: serving on %s (%d replicas, %d nodes, seed %d, lease %.1fs)\n",
		*addr, *replicas, *nodes, *seed, *lease)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(out, "clited: draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if *traceOut != "" {
		if err := writeTrace(tr, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "clited: wrote %d trace events to %s\n", tr.Len(), *traceOut)
	}
	st := g.Status()
	fmt.Fprintf(out, "clited: shut down cleanly (term %d, %d commands, %d/%d replicas alive)\n",
		st.Term, st.Commands, st.Alive, st.Replicas)
	return nil
}

func writeTrace(tr *clite.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// apiError is the uniform JSON error body. Retryable tells the client
// whether backoff-and-retry can succeed (election pending, RPC lost)
// or the condition is durable (degraded, unplaceable).
type apiError struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable"`
}

// placeRequest / placeResponse are the /v1/place wire types.
type placeRequest struct {
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
}

type placeResponse struct {
	Node    int     `json:"node"`
	Score   float64 `json:"score"`
	Samples int     `json:"samples"`
	QoSMet  bool    `json:"qos_met"`
}

type failNodeRequest struct {
	Node int `json:"node"`
}

type rehomeOutcome struct {
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	From     int     `json:"from"`
	Node     int     `json:"node"` // -1 when unrehomed
	Error    string  `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeGroupError maps the replica group's typed errors onto HTTP:
// retryable control-plane conditions are 503 with Retry-After,
// durable degradation is 503 without, cluster-level rejection is 409.
func writeGroupError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, clite.ErrUnplaceable):
		writeJSON(w, http.StatusConflict, apiError{Error: "unplaceable: no node can host the job within QoS"})
	case errors.Is(err, clite.ErrNoLeader), errors.Is(err, clite.ErrReplicaRPCLost):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error(), Retryable: true})
	case errors.Is(err, clite.ErrDegraded):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// newHandler wires the replica group behind the HTTP/JSON API. store
// receives one sample per committed placement (and per rehoming
// outcome), stamped with the replica log's simulated clock, so the
// /slo and /cells views track the command stream deterministically.
// Every route runs under recoverPanics.
func newHandler(g *replica.Group, reg *telemetry.Registry, store *clite.SLOStore) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) {
		var req placeRequest
		if !decode(w, r, &req) {
			return
		}
		p, err := g.Place(cluster.Request{Workload: req.Workload, Load: req.Load})
		if err != nil {
			writeGroupError(w, err)
			return
		}
		viol := 0
		if !p.Result.QoSMeetable {
			viol = 1
		}
		store.ObserveCells(g.Clock(), -1, []clite.CellSample{
			{Cell: p.Node, Placed: 1, Violations: viol},
		})
		writeJSON(w, http.StatusOK, placeResponse{
			Node:    p.Node,
			Score:   p.Result.BestScore,
			Samples: p.Result.SamplesUsed,
			QoSMet:  p.Result.QoSMeetable,
		})
	})
	mux.HandleFunc("POST /v1/failnode", func(w http.ResponseWriter, r *http.Request) {
		var req failNodeRequest
		if !decode(w, r, &req) {
			return
		}
		outcomes, err := g.FailNode(req.Node)
		if err != nil {
			writeGroupError(w, err)
			return
		}
		out := make([]rehomeOutcome, 0, len(outcomes))
		var samples []clite.CellSample
		for _, o := range outcomes {
			ro := rehomeOutcome{Workload: o.Request.Workload, Load: o.Request.Load, From: o.From, Node: o.Node}
			if o.Err != nil {
				ro.Error = o.Err.Error()
				samples = append(samples, clite.CellSample{Cell: o.From, Rejected: 1})
			} else {
				samples = append(samples, clite.CellSample{Cell: o.Node, Placed: 1})
			}
			out = append(out, ro)
		}
		store.ObserveCells(g.Clock(), -1, samples)
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/kill", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Replica int `json:"replica"`
		}
		if !decode(w, r, &req) {
			return
		}
		if err := g.Kill(req.Replica); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, g.Status())
	})
	mux.HandleFunc("POST /v1/advance", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Seconds float64 `json:"seconds"`
		}
		if !decode(w, r, &req) {
			return
		}
		g.Advance(req.Seconds)
		writeJSON(w, http.StatusOK, g.Status())
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Status())
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Snapshot())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, reg.PrometheusText())
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, store.FormatSLO())
	})
	mux.HandleFunc("GET /cells", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, store.FormatCells())
	})
	return recoverPanics(mux)
}

// recoverPanics answers a panicking handler (a *par.Panic out of
// screening, say) with a 500 and {"retryable":false}, logging the
// panic and its stack to stderr. Left to net/http, the panic would
// reach the client as a dropped connection, which callWithRetry cannot
// tell from a transport error: it would re-submit a command some
// replicas may already have applied. http.ErrAbortHandler keeps its
// meaning — abort the response silently — and is re-panicked.
func recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			fmt.Fprintf(os.Stderr, "clited: %s %s panicked: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			writeJSON(w, http.StatusInternalServerError, apiError{Error: "internal error serving " + r.Method + " " + r.URL.Path})
		}()
		h.ServeHTTP(w, r)
	})
}

// clientCall issues one request against a running daemon with
// capped-exponential-backoff retry (the same schedule the in-process
// replica client uses, in wall time) and a hard deadline across all
// attempts.
func clientCall(out io.Writer, base, call, workload string, load float64, node, attempts int, deadline time.Duration) error {
	var method, path string
	var body any
	switch call {
	case "place":
		if workload == "" {
			return fmt.Errorf("-call place needs -workload")
		}
		method, path, body = http.MethodPost, "/v1/place", placeRequest{Workload: workload, Load: load}
	case "failnode":
		method, path, body = http.MethodPost, "/v1/failnode", failNodeRequest{Node: node}
	case "status":
		method, path = http.MethodGet, "/v1/status"
	case "snapshot":
		method, path = http.MethodGet, "/v1/snapshot"
	default:
		return fmt.Errorf("unknown -call %q (want place, failnode, status, snapshot)", call)
	}
	resp, err := callWithRetry(base, method, path, body, attempts, deadline)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, strings.TrimSpace(resp))
	return nil
}

// callWithRetry performs the HTTP request, retrying retryable 503s and
// transport errors with the replica package's backoff schedule until
// the attempt budget or the wall-clock deadline runs out.
func callWithRetry(base, method, path string, body any, attempts int, deadline time.Duration) (string, error) {
	backoff := replica.Backoff{}
	start := time.Now()
	hc := &http.Client{Timeout: 10 * time.Second}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				return "", err
			}
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return "", err
		}
		resp, err := hc.Do(req)
		if err != nil {
			lastErr = err
		} else {
			payload, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if rerr != nil {
				return "", rerr
			}
			if resp.StatusCode == http.StatusOK {
				return string(payload), nil
			}
			var ae apiError
			retryable := false
			if json.Unmarshal(payload, &ae) == nil {
				retryable = ae.Retryable
			}
			if !retryable {
				return "", fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(payload)))
			}
			lastErr = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, ae.Error)
		}
		delay := time.Duration(backoff.Delay(attempt) * float64(time.Second))
		if time.Since(start)+delay > deadline {
			break
		}
		time.Sleep(delay)
	}
	return "", fmt.Errorf("gave up after %v: %w", time.Since(start).Round(time.Millisecond), lastErr)
}
