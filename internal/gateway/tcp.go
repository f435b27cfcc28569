package gateway

import (
	"bufio"

	"makalu/internal/serve"
)

// TCPServer is the gateway's client-facing line-protocol listener: the
// backend frontend's own server (same sockets, bounds, grammar and
// codec), so the load generator drives a direct backend and the gateway
// with the same code path — the property a direct-vs-gateway
// comparison depends on.
type TCPServer = serve.TCPServer

// TCPConfig bounds a client connection's resource use; the zero value
// gets the backend frontend's defaults (1 KiB lines, 2m idle).
type TCPConfig = serve.TCPConfig

// NewTCPServer starts the gateway frontend on addr.
func NewTCPServer(addr string, gw *Gateway, cfg TCPConfig) (*TCPServer, error) {
	return serve.NewLineServer(addr, cfg, gatewayLines{gw})
}

// gatewayLines forwards each parsed request (malformed lines never get
// this far) re-serialized canonically, routed by serve.Request.Key, and
// relays the backend reply verbatim — the gateway never rewrites an H
// line, so cache-hit bits and result fields are exactly what the
// backend produced.
type gatewayLines struct{ gw *Gateway }

// Status is the gateway's own: the tier's epoch and its total in-flight
// forwards stand in for the single-engine fields.
func (h gatewayLines) Status() (uint64, int64) { return h.gw.Epoch(), h.gw.Inflight() }

func (h gatewayLines) Lookup(w *bufio.Writer, _ string, req serve.Request) {
	// Canonical re-serialization: the backend parses exactly what the
	// gateway keyed on, so gateway and backend agree on Request.Key.
	f := h.gw.getForwarder()
	f.line = serve.AppendQuery(f.line[:0], req)
	if reply, err := h.gw.forward(f, req.Key()); err != nil {
		serve.WriteReply(w, serve.Reply{Kind: serve.ReplyError, Message: "gateway: " + err.Error()})
	} else {
		w.Write(reply)
	}
	h.gw.putForwarder(f)
}
