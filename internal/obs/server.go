// Management HTTP/JSON API: metrics, stats, traces, pprof, and
// generation-returning live-mutation endpoints.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"

	"repro/internal/engine"
)

// Ops is the set of control-plane operations the management API can
// invoke. Each func is optional: a nil entry disables its endpoint
// (501 Not Implemented), so a read-only deployment can mount the
// server with a zero Ops. Every mutation that rides the engine's
// generation-tagged control queue returns the generation it was tagged with;
// clients pass it to /control/quiesce (or set "wait" in the request)
// to block until every shard has applied it.
type Ops struct {
	// LoadModule loads source as tenant id under the request context,
	// replacing the program already loaded under id if there is one,
	// and returns once every shard has committed it or it failed and
	// committed nothing, so "wait" is moot. Wire
	// Engine.LoadModuleVerified here.
	LoadModule func(ctx context.Context, source string, id uint16) (uint64, error)
	// UnloadModule live-unloads tenant id, returning the generation.
	UnloadModule func(id uint16) (uint64, error)
	// SetEgressWeight updates a tenant's §3.5 egress WFQ weight,
	// returning the generation.
	SetEgressWeight func(tenant uint16, weight float64) (uint64, error)
	// SetTenantLimit updates a tenant's ingress rate limit. The
	// limiter applies at ingress immediately (no shard operation), so the
	// returned generation is the engine's current one.
	SetTenantLimit func(tenant uint16, pps, bps float64) (uint64, error)
	// AwaitQuiesceCtx blocks until every shard has applied the given
	// generation. It runs under the request context, so an abandoned or
	// timed-out HTTP request stops waiting instead of parking a handler
	// goroutine behind a stalled shard. Wire Engine.AwaitQuiesceCtx here.
	AwaitQuiesceCtx func(ctx context.Context, gen uint64) error
}

// Server is the management endpoint bundle mounted by Handler. All
// fields are read-only after construction.
type Server struct {
	exporter *Exporter
	sources  []Source
	tracer   *Tracer
	ops      Ops
}

// NewServer builds a Server scraping the given sources for /metrics
// and /stats. tracer may be nil (GET /traces then reports an empty
// ring); any nil Ops entry disables its mutation endpoint.
func NewServer(tracer *Tracer, ops Ops, sources ...Source) *Server {
	return &Server{
		exporter: NewExporter(sources...),
		sources:  sources,
		tracer:   tracer,
		ops:      ops,
	}
}

// Handler returns the management mux:
//
//	GET  /metrics              Prometheus text exposition
//	GET  /stats                engine.Stats snapshots as JSON
//	GET  /traces               the sampled frame-trace ring as JSON
//	GET  /debug/pprof/*        the runtime profiler
//	POST /control/load-module    {"id":N,"source":"...","wait":bool}
//	POST /control/unload-module  {"id":N,"wait":bool}
//	POST /control/egress-weight  {"tenant":N,"weight":F,"wait":bool}
//	POST /control/rate-limit     {"tenant":N,"pps":F,"bps":F,"wait":bool}
//	POST /control/quiesce        {"generation":N}
//
// Every successful mutation responds {"generation":N}; a failed one
// answers 400, or 503 for the errors errStatus names. load-module on
// an occupied id replaces that tenant's program, and it answers only
// once the load is committed or has failed leaving the old program in
// place, so its "wait" is moot.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/control/load-module", s.handleLoadModule)
	mux.HandleFunc("/control/unload-module", s.handleUnloadModule)
	mux.HandleFunc("/control/egress-weight", s.handleEgressWeight)
	mux.HandleFunc("/control/rate-limit", s.handleRateLimit)
	mux.HandleFunc("/control/quiesce", s.handleQuiesce)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.exporter.Collect(w)
}

// statsNode is one node's /stats entry.
type statsNode struct {
	Node  string       `json:"node,omitempty"`
	Stats engine.Stats `json:"stats"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Management-path only: a fresh receiver per request keeps
	// concurrent scrapes from sharing snapshot state.
	nodes := make([]statsNode, len(s.sources))
	for i, src := range s.sources {
		nodes[i].Node = src.Node
		src.StatsInto(&nodes[i].Stats)
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": nodes})
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var total uint64
	events := []TraceEvent{}
	if s.tracer != nil {
		total = s.tracer.Total()
		events = s.tracer.Events(events)
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": total, "events": events})
}

// controlReq is the union request body of the /control endpoints;
// each handler reads the fields it needs.
type controlReq struct {
	ID         uint16  `json:"id"`
	Source     string  `json:"source"`
	Tenant     uint16  `json:"tenant"`
	Weight     float64 `json:"weight"`
	PPS        float64 `json:"pps"`
	BPS        float64 `json:"bps"`
	Generation uint64  `json:"generation"`
	Wait       bool    `json:"wait"`
}

func (s *Server) handleLoadModule(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, func(req *controlReq) (uint64, error) {
		if s.ops.LoadModule == nil {
			return 0, errNotImplemented
		}
		return s.ops.LoadModule(r.Context(), req.Source, req.ID)
	})
}

func (s *Server) handleUnloadModule(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, func(req *controlReq) (uint64, error) {
		if s.ops.UnloadModule == nil {
			return 0, errNotImplemented
		}
		return s.ops.UnloadModule(req.ID)
	})
}

func (s *Server) handleEgressWeight(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, func(req *controlReq) (uint64, error) {
		if s.ops.SetEgressWeight == nil {
			return 0, errNotImplemented
		}
		return s.ops.SetEgressWeight(req.Tenant, req.Weight)
	})
}

func (s *Server) handleRateLimit(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, func(req *controlReq) (uint64, error) {
		if s.ops.SetTenantLimit == nil {
			return 0, errNotImplemented
		}
		return s.ops.SetTenantLimit(req.Tenant, req.PPS, req.BPS)
	})
}

func (s *Server) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.ops.AwaitQuiesceCtx == nil {
		http.Error(w, "not implemented", http.StatusNotImplemented)
		return
	}
	var req controlReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if err := s.ops.AwaitQuiesceCtx(r.Context(), req.Generation); err != nil {
		writeJSON(w, errStatus(err), map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": req.Generation})
}

// errStatus maps an operation or quiesce-wait failure to an HTTP
// status: a failed verification, a degraded (stalled) shard or an
// expired request context is a service-availability problem, not a bad
// request.
func errStatus(err error) int {
	if errors.Is(err, engine.ErrVerify) || errors.Is(err, engine.ErrDegraded) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// errNotImplemented marks a mutation whose Ops entry is nil.
var errNotImplemented = notImplementedError{}

type notImplementedError struct{}

func (notImplementedError) Error() string { return "not implemented" }

// mutate runs one control mutation: decode, invoke, optionally await
// quiesce, respond {"generation":N}.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, op func(*controlReq) (uint64, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req controlReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	gen, err := op(&req)
	if err == errNotImplemented {
		http.Error(w, "not implemented", http.StatusNotImplemented)
		return
	}
	if err != nil {
		writeJSON(w, errStatus(err), map[string]any{"error": err.Error()})
		return
	}
	if req.Wait && s.ops.AwaitQuiesceCtx != nil {
		if err := s.ops.AwaitQuiesceCtx(r.Context(), gen); err != nil {
			writeJSON(w, errStatus(err), map[string]any{
				"generation": gen, "error": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
