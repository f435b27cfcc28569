package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"makalu/internal/obs"
)

// HTTPConfig wires the HTTP frontend.
type HTTPConfig struct {
	Engine  *Engine
	Limiter *Limiter      // nil = unlimited
	Metrics *obs.Registry // backs /debug/metrics; nil disables the endpoint body
	// Debug exposes /debug/metrics and /debug/pprof. Leave false when
	// the daemon faces untrusted clients.
	Debug bool
}

// MaxBodyBytes caps a request body on every HTTP frontend; every
// endpoint is GET-shaped, so bodies buy a client nothing and an
// oversized one is refused with 413 before any handler reads it.
const MaxBodyBytes = 64 << 10

// LookupReply is the JSON document /lookup returns.
type LookupReply struct {
	Found         bool   `json:"found"`
	FirstMatchHop int    `json:"first_match_hop"`
	Messages      int    `json:"messages"`
	Visited       int    `json:"visited"`
	Matches       int    `json:"matches"`
	CacheHit      bool   `json:"cache_hit"`
	Epoch         uint64 `json:"epoch"`
	Mech          string `json:"mech"`
	Object        string `json:"object"`
	TTL           int    `json:"ttl"`
}

// errorReply is the JSON error document; Reason distinguishes the two
// 429 causes (rate limit vs load shed).
type errorReply struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// NewHTTPHandler builds the daemon's HTTP mux:
//
//	GET /lookup?obj=<id>&mech=flood|walk|abf&ttl=<n>  serve one query
//	GET /objects                                      the servable object catalog
//	GET /healthz                                      liveness probe
//	GET /debug/metrics                                obs registry JSON (Debug only)
//	GET /debug/pprof/...                              live profiling  (Debug only)
//
// Rate-limited and shed requests get 429 with a Retry-After header;
// the JSON body's reason field says which path refused.
func NewHTTPHandler(cfg HTTPConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", func(w http.ResponseWriter, r *http.Request) {
		serveLookup(cfg, w, r)
	})
	mux.HandleFunc("/objects", func(w http.ResponseWriter, r *http.Request) {
		objs := cfg.Engine.Objects()
		ids := make([]string, len(objs))
		for i, o := range objs {
			ids[i] = "0x" + strconv.FormatUint(o, 16)
		}
		WriteJSON(w, http.StatusOK, struct {
			Epoch   uint64   `json:"epoch"`
			Objects []string `json:"objects"`
		}{cfg.Engine.Epoch(), ids})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// epoch + queue_depth let a gateway health checker tell a
		// stale-epoch or saturated backend from a merely up one.
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"epoch":%d,"shards":%d,"queue_depth":%d}`+"\n",
			cfg.Engine.Epoch(), cfg.Engine.Shards(), cfg.Engine.QueueDepth())
	})
	return OpsHandler(mux, cfg.Metrics, cfg.Debug, cfg.Engine.syncCacheLen)
}

// OpsHandler finishes a tier's mux with what every HTTP frontend
// shares: when debug is set, /debug/metrics (reg as JSON, after refresh
// if the tier has gauges it only updates on demand) and /debug/pprof;
// always, the request-body cap.
func OpsHandler(mux *http.ServeMux, reg *obs.Registry, debug bool, refresh func()) http.Handler {
	if debug {
		mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
			if refresh != nil {
				refresh()
			}
			w.Header().Set("Content-Type", "application/json")
			if reg == nil {
				fmt.Fprintln(w, "{}")
				return
			}
			if err := reg.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return limitBody(mux)
}

// limitBody rejects requests whose declared Content-Length exceeds
// MaxBodyBytes with 413, and caps chunked/undeclared bodies with
// http.MaxBytesReader so no handler (present or future) can be made to
// buffer an unbounded POST.
func limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > MaxBodyBytes {
			WriteJSON(w, http.StatusRequestEntityTooLarge,
				errorReply{Error: fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes)})
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// NewHTTPServer wraps handler in an http.Server with the slow-client
// protections the stdlib leaves off by default: without
// ReadHeaderTimeout a slowloris client dripping header bytes pins a
// goroutine (and its buffers) indefinitely, and without write/idle
// timeouts a stalled reader does the same on the response side.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// clientID identifies the caller for rate limiting: the X-Makalu-Client
// header when present (so load generators can model client
// populations), else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Makalu-Client"); id != "" {
		return id
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

// retryAfterHeader formats a Retry-After value: whole seconds, rounded
// up, at least 1 — the header has no sub-second resolution.
func retryAfterHeader(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// WriteJSON sends v as the JSON body of a response with the given
// status. An encode error means the client went away mid-body; there
// is no one left to report it to.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func serveLookup(cfg HTTPConfig, w http.ResponseWriter, r *http.Request) {
	if ok, retry := cfg.Limiter.Allow(clientID(r)); !ok {
		w.Header().Set("Retry-After", retryAfterHeader(retry))
		WriteJSON(w, http.StatusTooManyRequests,
			errorReply{Error: "rate limit exceeded", Reason: "rate"})
		return
	}
	q := r.URL.Query()
	objStr := q.Get("obj")
	if objStr == "" {
		WriteJSON(w, http.StatusBadRequest, errorReply{Error: "missing obj parameter"})
		return
	}
	obj, err := parseObjectID(objStr)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("bad obj: %v", err)})
		return
	}
	mech := MechFlood
	if ms := q.Get("mech"); ms != "" {
		mech, err = ParseMechanism(ms)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
			return
		}
	}
	ttl := 4
	if ts := q.Get("ttl"); ts != "" {
		ttl, err = strconv.Atoi(ts)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("bad ttl: %v", err)})
			return
		}
	}
	req := Request{Mech: mech, Object: obj, TTL: ttl}
	resp, err := cfg.Engine.Lookup(req)
	switch {
	case err == nil:
	case err == ErrOverloaded:
		// Shed: the queue-bound policy refused so accepted requests keep
		// their latency. One second is the "come back after the burst"
		// hint; the client-side backoff does the real pacing.
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests,
			errorReply{Error: err.Error(), Reason: "shed"})
		return
	case err == ErrClosed:
		WriteJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error()})
		return
	default:
		WriteJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, LookupReply{
		Found:         resp.Result.Success,
		FirstMatchHop: resp.Result.FirstMatchHop,
		Messages:      resp.Result.Messages,
		Visited:       resp.Result.Visited,
		Matches:       resp.Result.MatchesFound,
		CacheHit:      resp.CacheHit,
		Epoch:         resp.Epoch,
		Mech:          req.Mech.String(),
		Object:        "0x" + strconv.FormatUint(obj, 16),
		TTL:           req.TTL,
	})
}

// parseObjectID accepts decimal or 0x-prefixed hex object ids, the
// same forms makalu-node's -store flag takes.
func parseObjectID[T text](s T) (uint64, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		return strconv.ParseUint(string(s[2:]), 16, 64)
	}
	return strconv.ParseUint(string(s), 10, 64)
}
