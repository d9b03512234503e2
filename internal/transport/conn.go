package transport

import (
	"context"

	"sor/internal/wire"
)

// Conn is the device-side transport: what a phone holds to talk to the
// server, whatever the protocol underneath. The one-shot HTTP Client and
// the persistent stream session (internal/transport/session) both
// implement it, so the frontend, the fleet simulator, and the load tools
// are written against Conn and switch transports with a flag.
//
// Send and SendBatch are the request/reply half (uploads, participation,
// rank queries). Events is the server-initiated half: schedule pushes,
// wake-up pings, and epoch invalidations arrive on it for transports that
// keep a live channel open. A one-shot transport returns a nil Events
// channel — receiving from it blocks forever, which composes correctly
// inside a select.
type Conn interface {
	// Send delivers one message and returns the server's reply.
	Send(ctx context.Context, m wire.Message) (wire.Message, error)
	// SendBatch coalesces reports into one DataUploadBatch round trip.
	SendBatch(ctx context.Context, uploads []*wire.DataUpload) (*wire.Ack, error)
	// Events streams server-initiated messages; nil when the transport
	// cannot carry them (one-shot HTTP).
	Events() <-chan wire.Message
	// Close releases the transport. Further Sends fail.
	Close() error
}

// Notifier is the server's outbound push path to phones, keyed by device
// token. The session registry (internal/transport/session) is its one
// implementation; the interface exists so this package and the server do
// not import the session layer.
type Notifier interface {
	// Notify queues a coalesced wake-up: get that phone to ping home.
	Notify(token string) error
	// PushMessage delivers a full wire message (a fresh wire.Schedule)
	// down the phone's live connection, saving it the ping round trip.
	PushMessage(token string, m wire.Message) error
	// Broadcast fans one message to every live session (epoch
	// invalidations) and returns how many sessions it was queued to.
	Broadcast(m wire.Message) int
}

// Compile-time check: the HTTP client satisfies Conn.
var _ Conn = (*Client)(nil)

// Events implements Conn for the one-shot HTTP client: there is no live
// channel, so the returned nil channel never delivers (receives block
// forever — use inside a select).
func (c *Client) Events() <-chan wire.Message { return nil }

// Close implements Conn. The HTTP client holds no per-device connection
// state beyond keep-alive sockets, which are released here.
func (c *Client) Close() error {
	c.http.CloseIdleConnections()
	return nil
}
