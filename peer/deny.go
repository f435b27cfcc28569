package peer

// This file implements runtime peer deny lists. A denied address is
// never dialed (Connect, refill) and its inbound handshakes are
// dropped right after the Hello reveals the dialer's listen address.
// The multi-process testnet harness uses symmetric deny lists to
// partition a live network without firewall rules: both sides of the
// cut stop dialing each other and refuse each other's dials, and
// existing links are severed without a Bye — to the remote peer the
// cut is indistinguishable from a network failure, so its liveness
// machinery (backoff, refill) runs exactly as it would for a real
// partition.

// SetDenied replaces the deny list. Links to newly denied peers are
// cut immediately — without a Bye, so the remote side sees a network
// failure, not a clean departure. Clearing an address from the list
// does not redial it; the management loop's refill will rediscover it
// through neighbor views (its backoff state, if any, still applies).
func (n *Node) SetDenied(addrs []string) { n.do(evDeny{addrs: addrs}) }
