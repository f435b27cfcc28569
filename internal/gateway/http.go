package gateway

import (
	"io"
	"net/http"

	"makalu/internal/obs"
	"makalu/internal/serve"
)

// HTTPConfig wires the gateway's HTTP endpoints.
type HTTPConfig struct {
	Gateway *Gateway
	Metrics *obs.Registry // backs /debug/metrics; nil disables the body
	// Debug exposes /debug/metrics and /debug/pprof.
	Debug bool
}

// backendHealth is one backend's row in the gateway /healthz document.
type backendHealth struct {
	Addr       string `json:"addr"`
	Up         bool   `json:"up"`
	Epoch      uint64 `json:"epoch"`
	QueueDepth int64  `json:"queue_depth"`
	Error      string `json:"error,omitempty"`
}

// NewHTTPHandler builds the gateway mux:
//
//	GET /healthz   ring membership + per-backend epoch/queue state
//	GET /objects   the object catalog, proxied from a healthy backend
//	GET /debug/... metrics and pprof (Debug only)
//
// The debug endpoints and the request-body cap are the backend
// frontend's (serve.OpsHandler).
//
// /objects keeps the load generator's contract — it fetches the
// catalog from whatever address it benchmarks — without the gateway
// owning any content state.
func NewHTTPHandler(cfg HTTPConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		g := cfg.Gateway
		rows := make([]backendHealth, 0, len(g.Backends()))
		for _, b := range g.Backends() {
			row := backendHealth{
				Addr: b.Addr(), Up: b.Up(),
				Epoch: b.Epoch(), QueueDepth: b.QueueDepth(),
			}
			b.lastProbeMu.Lock()
			if b.lastProbe != nil {
				row.Error = b.lastProbe.Error()
			}
			b.lastProbeMu.Unlock()
			rows = append(rows, row)
		}
		serve.WriteJSON(w, http.StatusOK, struct {
			OK       bool            `json:"ok"`
			Route    string          `json:"route"`
			Epoch    uint64          `json:"epoch"`
			Healthy  int             `json:"healthy"`
			Backends []backendHealth `json:"backends"`
		}{g.Healthy() > 0, g.cfg.Route, g.Epoch(), g.Healthy(), rows})
	})
	mux.HandleFunc("/objects", func(w http.ResponseWriter, r *http.Request) {
		g := cfg.Gateway
		for _, b := range g.Backends() {
			if !b.Up() || b.spec.HTTP == "" {
				continue
			}
			resp, err := http.Get("http://" + b.spec.HTTP + "/objects")
			if err != nil {
				continue
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		http.Error(w, `{"error":"no healthy backend with an HTTP address"}`, http.StatusServiceUnavailable)
	})
	return serve.OpsHandler(mux, cfg.Metrics, cfg.Debug, nil)
}
