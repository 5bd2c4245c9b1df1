// Package mpi simulates the message-passing transport underneath the
// distributed exchange operators (§5, Figure 4 of the paper): fixed-size
// framed messages (≥256 KB for good throughput in the paper; configurable
// here), per-rank inboxes with capacity two — the double-buffering that
// overlaps communication with processing — byte accounting for the network
// cost model, and the intra-node optimization of passing batch pointers
// instead of serialized buffers ("for intra-node communication we only send
// pointers to sender-side buffers").
//
// The package owns the wire format (wire.go). A sender bound for a remote
// rank encodes rows into a Wire straight from its producer's vectors under
// the routing selection and ships the flushed, exact-size message with
// SendEncoded; Comm.Local tells it which ranks take the pointer handoff
// instead. EncodeBatch is the same encoder applied to one whole batch, and
// DecodeBatch is its bounds-checked inverse.
package mpi

import (
	"sync"
	"sync/atomic"

	"vectorh/internal/vector"
)

// DefaultMsgBytes is the paper's minimum message size for good MPI
// throughput.
const DefaultMsgBytes = 256 << 10

// Stats aggregates transport traffic.
type Stats struct {
	RemoteBytes   int64 // serialized bytes crossing node boundaries
	RemoteMsgs    int64
	LocalHandoffs int64 // intra-node pointer passes (no serialization)
}

// Network is the cluster-wide transport fabric: it carries accounting shared
// by all communicators.
type Network struct {
	nodes       int
	remoteBytes atomic.Int64
	remoteMsgs  atomic.Int64
	localPasses atomic.Int64
}

// NewNetwork returns a fabric connecting n nodes.
func NewNetwork(n int) *Network { return &Network{nodes: n} }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.nodes }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		RemoteBytes:   n.remoteBytes.Load(),
		RemoteMsgs:    n.remoteMsgs.Load(),
		LocalHandoffs: n.localPasses.Load(),
	}
}

// Reset zeroes the counters.
func (n *Network) Reset() {
	n.remoteBytes.Store(0)
	n.remoteMsgs.Store(0)
	n.localPasses.Store(0)
}

// Message is one delivery: either serialized Data (remote) or a pointer-
// passed Local batch (intra-node).
type Message struct {
	From  int
	Data  []byte
	Local *vector.Batch
}

// Comm is one communicator (one per distributed exchange): per-destination-
// rank inboxes with a fixed number of senders. Ranks are nodes for
// thread-to-node exchanges and streams for thread-to-thread exchanges.
type Comm struct {
	net     *Network
	rankOf  func(rank int) int // rank -> node (identity for node ranks)
	inboxes []chan Message
	senders int32
	once    sync.Once
}

// NewComm creates a communicator with the given number of destination ranks
// and total senders. rankNode maps a rank to its physical node (used to
// decide local vs remote); pass nil when ranks are nodes.
func (n *Network) NewComm(ranks, senders int, rankNode func(int) int) *Comm {
	if rankNode == nil {
		rankNode = func(r int) int { return r }
	}
	c := &Comm{net: n, rankOf: rankNode, senders: int32(senders)}
	c.inboxes = make([]chan Message, ranks)
	for i := range c.inboxes {
		// Capacity 2: the double-buffering of Figure 4.
		c.inboxes[i] = make(chan Message, 2)
	}
	return c
}

// Local reports whether toRank resides on fromNode, i.e. whether a send
// between them is a pointer handoff rather than a serialized message.
func (c *Comm) Local(fromNode, toRank int) bool { return c.rankOf(toRank) == fromNode }

// SendQuit delivers a batch from a sender residing on fromNode to a rank,
// giving up when quit closes (query cancellation): inbox capacity is
// bounded, so without it an abandoned exchange would leave senders blocked
// forever. A local destination receives the batch pointer; a remote one
// receives EncodeBatch of it. It reports whether the message was delivered.
func (c *Comm) SendQuit(fromNode, toRank int, b *vector.Batch, quit <-chan struct{}) bool {
	if !c.Local(fromNode, toRank) {
		return c.SendEncoded(fromNode, toRank, EncodeBatch(b), quit)
	}
	c.net.localPasses.Add(1)
	select {
	case c.inboxes[toRank] <- Message{From: fromNode, Local: b}:
		return true
	case <-quit:
		return false
	}
}

// SendEncoded delivers an already-encoded message (a Wire flush or
// EncodeBatch output), accounted as network traffic. It gives up when quit
// closes and reports whether the message was delivered. The receiver only
// reads data, so one message may go to several ranks.
func (c *Comm) SendEncoded(fromNode, toRank int, data []byte, quit <-chan struct{}) bool {
	c.net.remoteBytes.Add(int64(len(data)))
	c.net.remoteMsgs.Add(1)
	select {
	case c.inboxes[toRank] <- Message{From: fromNode, Data: data}:
		return true
	case <-quit:
		return false
	}
}

// DoneSending signals one sender finished; when the last sender is done all
// inboxes close.
func (c *Comm) DoneSending() {
	if atomic.AddInt32(&c.senders, -1) == 0 {
		c.once.Do(func() {
			for _, ch := range c.inboxes {
				close(ch)
			}
		})
	}
}

// Recv receives the next message for rank; ok is false when all senders are
// done and the inbox is drained.
func (c *Comm) Recv(rank int) (Message, bool) {
	m, ok := <-c.inboxes[rank]
	return m, ok
}

// RecvQuit is Recv that also returns (with ok=false) when quit closes, so
// exchange dispatcher goroutines exit promptly on query cancellation even
// while senders are stalled.
func (c *Comm) RecvQuit(rank int, quit <-chan struct{}) (Message, bool) {
	select {
	case m, ok := <-c.inboxes[rank]:
		return m, ok
	case <-quit:
		return Message{}, false
	}
}

// Batch returns the message payload as a batch, decoding if it was remote.
func (m *Message) Batch() (*vector.Batch, error) {
	if m.Local != nil {
		return m.Local, nil
	}
	return DecodeBatch(m.Data)
}
