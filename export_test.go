package sor

import (
	"time"

	"sor/internal/transport"
)

// SetPeerSendTimeout shortens the bound on one forwarded send for a test
// and returns the function that restores it.
func SetPeerSendTimeout(d time.Duration) (restore func()) {
	old := peerSendTimeout
	peerSendTimeout = d
	return func() { peerSendTimeout = old }
}

// PeerSessions counts the router sessions attached to a member's wire
// port (0 for a node serving no HTTP).
func PeerSessions(rn *RunningNode) int {
	if rn.peers == nil {
		return 0
	}
	return rn.peers.Registry().Count()
}

// DropPeerSessions severs every router session on a member's wire port.
func DropPeerSessions(rn *RunningNode) int { return rn.peers.CloseConns() }

// WrapHandler swaps a node's live handler for wrap(handler).
func WrapHandler(rn *RunningNode, wrap func(Handler) Handler) {
	rn.handler.Store(transport.Handler(wrap(rn.handler.Load().(transport.Handler))))
}
