package peer

import (
	"net"
	"time"
)

// Transport abstracts the network a Node runs over. The default is
// plain TCP; makalu-experiments -live-churn runs nodes over
// peer/faultnet, whose black holes partition links and silence nodes
// without touching the protocol code.
type Transport interface {
	// Listen opens the node's accept socket.
	Listen(network, address string) (net.Listener, error)
	// DialTimeout opens an outbound connection, failing after timeout.
	DialTimeout(network, address string, timeout time.Duration) (net.Conn, error)
}

// tcpTransport is the production transport: the plain net package.
type tcpTransport struct{}

func (tcpTransport) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (tcpTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, address, timeout)
}

// peerTagger is implemented by transport connections that want to know
// which peer identity (listen address) a connection belongs to. The
// node labels inbound connections as soon as the Hello reveals the
// dialer's listen address; outbound connections are labeled by the
// transport itself at dial time. faultnet uses the label to apply
// per-link black holes symmetrically.
type peerTagger interface {
	SetPeer(addr string)
}

// tagConn labels c with the remote peer's listen address when the
// transport supports it.
func tagConn(c net.Conn, addr string) {
	if t, ok := c.(peerTagger); ok {
		t.SetPeer(addr)
	}
}
