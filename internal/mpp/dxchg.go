// Package mpp implements the distributed exchange (DXchg) operators of §5:
// DXchgHashSplit, DXchgRangeSplit, DXchgBroadcast and DXchgUnion, in both
// fan-out strategies the paper describes —
//
//   - thread-to-thread: every sender partitions straight to every consumer
//     stream (fanout N·C, per-node buffering 2·N·C²·msg), fastest on small
//     clusters;
//   - thread-to-node: senders partition per node (fanout N, buffering
//     2·N·C·msg) and tag each tuple with a receiver-thread column; a
//     per-node dispatcher lets consumer threads selectively consume, which
//     is what keeps VectorH scalable to ~100 nodes.
//
// Exchanges ride on the mpi package. A sender keeps one buffer per
// destination: for a remote rank it encodes each routed row group straight
// from the producer's vectors into an mpi.Wire and ships the exact-size
// message once MsgBytes are buffered; for a rank on its own node it gathers
// the rows into vectors sized for a full message and passes the batch
// pointer. The wire layout itself is mpi's.
package mpp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// Mode selects the fan-out strategy.
type Mode int

// Fan-out strategies.
const (
	ThreadToThread Mode = iota
	ThreadToNode
)

// Config parameterizes one distributed exchange.
type Config struct {
	Net      *mpi.Network
	Mode     Mode
	MsgBytes int             // flush threshold; default mpi.DefaultMsgBytes
	Ctx      context.Context // query context; senders check it per batch
}

func (c Config) msgBytes() int {
	if c.MsgBytes > 0 {
		return c.MsgBytes
	}
	return mpi.DefaultMsgBytes
}

// Stats reports one exchange's buffering behavior (the §5 scalability
// argument for thread-to-node).
type Stats struct {
	Fanout          int   // per-sender destination buffer count
	PeakBufferBytes int64 // peak total sender-side buffered bytes
}

// Exchange tracks shared exchange state; the concrete operators embed it.
type Exchange struct {
	cfg       Config
	ctx       context.Context
	fanout    int
	curBuf    atomic.Int64
	peakBuf   atomic.Int64
	quit      chan struct{}
	openPorts atomic.Int32
	stopOnce  sync.Once
}

// newExchange initializes shared exchange state and, when the config
// carries a cancelable context, ties the exchange's quit channel to it so a
// cancelled query releases senders blocked on full inboxes and dispatchers
// blocked on empty ones.
func newExchange(cfg Config) *Exchange {
	ex := &Exchange{cfg: cfg, ctx: cfg.Ctx, quit: make(chan struct{})}
	if ex.ctx == nil {
		ex.ctx = context.Background()
	}
	if done := ex.ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				ex.stop()
			case <-ex.quit:
			}
		}()
	}
	return ex
}

// stop tears the exchange down: senders and dispatchers unblock and exit.
func (e *Exchange) stop() { e.stopOnce.Do(func() { close(e.quit) }) }

// newPort wraps a consumer queue in a recvPort whose Close decrements the
// exchange's open-port count, stopping the exchange once the last port is
// closed. Stopping on the FIRST close would lose batches still buffered in
// inboxes of sibling streams mid-query; stopping only on the last close (or
// on context cancellation) is both loss-free and leak-free.
func (e *Exchange) newPort(ch chan portItem) *recvPort {
	return &recvPort{ch: ch, stop: e.portStop()}
}

// portStop registers one more open consumer port and returns its
// idempotent close, which stops the exchange when it is the last.
func (e *Exchange) portStop() func() {
	e.openPorts.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			if e.openPorts.Add(-1) == 0 {
				e.stop()
			}
		})
	}
}

// Stats returns buffering statistics after the exchange ran.
func (e *Exchange) Stats() Stats {
	return Stats{Fanout: e.fanout, PeakBufferBytes: e.peakBuf.Load()}
}

func (e *Exchange) bufDelta(d int) {
	cur := e.curBuf.Add(int64(d))
	for {
		peak := e.peakBuf.Load()
		if cur <= peak || e.peakBuf.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// sendBuffer accumulates rows bound for its ranks until a flush. Rows for
// remote ranks are encoded on arrival into an mpi.Wire, straight from the
// producer's vectors under the routing selection, so no intermediate batch
// is built for them. Rows for local ranks are gathered into vectors that are
// handed over by pointer. bytes is what the buffer holds: encoded bytes, or
// the gathered payload with dictionary strings materialized.
type sendBuffer struct {
	ranks  []int // every flushed message goes to each of these
	remote bool
	wire   mpi.Wire      // remote: the message under construction
	vecs   []*vector.Vec // local: the batch under construction
	// msgRows is the row count of the last local message, so the next one
	// is allocated at full size instead of growing to it.
	msgRows int
	rows    int
	bytes   int
}

// add buffers the rows of src that sel selects (physical positions; nil
// selects every row), tagging each with the receiver thread when tagged is
// set. Routing is batch-wise: the caller groups a batch's rows per
// destination once and adds each group column by column.
func (sb *sendBuffer) add(e *Exchange, src *vector.Batch, sel []int32, thread int32, tagged bool) {
	if len(src.Vecs) == 0 {
		return // rows without columns carry nothing
	}
	n := len(sel)
	if sel == nil {
		n = src.Vecs[0].Len()
	}
	var delta int
	switch {
	case sb.remote && tagged:
		delta = sb.wire.AppendTagged(src.Vecs, sel, thread)
	case sb.remote:
		delta = sb.wire.Append(src.Vecs, sel)
	default:
		delta = sb.gather(src.Vecs, sel, n, thread, tagged)
	}
	sb.rows += n
	sb.bytes += delta
	e.bufDelta(delta)
}

// gather appends n selected rows to the local batch and returns the bytes
// they add.
func (sb *sendBuffer) gather(vecs []*vector.Vec, sel []int32, n int, thread int32, tagged bool) int {
	if sb.vecs == nil {
		capHint := max(sb.msgRows, n)
		for _, v := range vecs {
			sb.vecs = append(sb.vecs, vector.New(v.Kind(), capHint))
		}
		if tagged {
			// The receiver-thread column: one byte per tuple in the paper, an
			// int32 here, charged at 4 bytes.
			sb.vecs = append(sb.vecs, vector.New(vector.Int32, capHint))
		}
	}
	delta := 0
	for i, v := range vecs {
		if sel == nil {
			sb.vecs[i].AppendRange(v, 0, n)
		} else {
			sb.vecs[i].AppendGather(v, sel)
		}
		delta += v.GatherBytes(sel)
	}
	if tagged {
		tv := sb.vecs[len(vecs)]
		for range n {
			tv.AppendInt32(thread)
		}
		delta += 4 * n
	}
	return delta
}

// flush sends the buffered rows, if any, to every rank of the buffer. It
// reports false when the exchange stopped first.
func (sb *sendBuffer) flush(e *Exchange, comm *mpi.Comm, node int) bool {
	if sb.rows == 0 {
		return true
	}
	e.bufDelta(-sb.bytes)
	sb.rows, sb.bytes = 0, 0
	if sb.remote {
		msg := sb.wire.Flush()
		for _, r := range sb.ranks {
			if !comm.SendEncoded(node, r, msg, e.quit) {
				return false
			}
		}
		return true
	}
	b := &vector.Batch{Vecs: sb.vecs}
	sb.vecs, sb.msgRows = nil, b.Len()
	for _, r := range sb.ranks {
		if !comm.SendQuit(node, r, b, e.quit) {
			return false
		}
	}
	return true
}

// recvPort is a consumer stream endpoint fed by a channel.
type recvPort struct {
	ch   chan portItem
	stop func()
}

type portItem struct {
	b   *vector.Batch
	err error
}

func (p *recvPort) Open() error { return nil }

func (p *recvPort) Next() (*vector.Batch, error) {
	it, ok := <-p.ch
	if !ok {
		return nil, nil
	}
	return it.b, it.err
}

func (p *recvPort) Close() error {
	if p.stop != nil {
		p.stop()
	}
	return nil
}

// flatten maps (node, thread) to a global stream id.
func flatten(consumersPerNode []int) (total int, streamNode []int) {
	for n, c := range consumersPerNode {
		for t := 0; t < c; t++ {
			streamNode = append(streamNode, n)
		}
		total += c
	}
	return
}

// DXchgHashSplit hash-partitions producer streams (grouped by node) across
// consumer threads on every node. It returns consumer ports indexed
// [node][thread].
func DXchgHashSplit(cfg Config, producers [][]exec.Operator, keys []expr.Expr, consumersPerNode []int) ([][]exec.Operator, *Exchange) {
	// Routing delegates to exec.HashRowsInto, which runs on the vector hash
	// kernels — the single hash definition shared with local exchange
	// partitioning and the join/aggregation hash tables — reusing the
	// sender's scratch buffer batch over batch.
	return newSplit(cfg, producers, consumersPerNode, func(b *vector.Batch, scratch []uint64) ([]uint64, error) {
		return exec.HashRowsInto(scratch, b, keys)
	})
}

// DXchgRangeSplit partitions by comparing an int64 key against ascending
// boundaries; consumer stream i gets keys ≤ bounds[i] (last unbounded).
func DXchgRangeSplit(cfg Config, producers [][]exec.Operator, key expr.Expr, bounds []int64, consumersPerNode []int) ([][]exec.Operator, *Exchange) {
	return newSplit(cfg, producers, consumersPerNode, func(b *vector.Batch, scratch []uint64) ([]uint64, error) {
		kv, err := key.Eval(b)
		if err != nil {
			return nil, err
		}
		out := scratch
		if n := b.Len(); cap(out) < n {
			out = make([]uint64, n)
		} else {
			out = out[:n]
		}
		for r := range out {
			var x int64
			if kv.Kind() == vector.Int32 {
				x = int64(kv.Int32s()[r])
			} else {
				x = kv.Int64s()[r]
			}
			d := 0
			for d < len(bounds) && x > bounds[d] {
				d++
			}
			out[r] = uint64(d)
		}
		return out, nil
	})
}

// newSplit builds a partitioning exchange; route returns one routing value
// per live row (hash, or direct stream index for range split — both are
// reduced modulo the stream count). The scratch argument is a per-sender
// buffer route may reuse and return, keeping steady-state routing
// allocation-free.
func newSplit(cfg Config, producers [][]exec.Operator, consumersPerNode []int,
	route func(*vector.Batch, []uint64) ([]uint64, error)) ([][]exec.Operator, *Exchange) {

	totalStreams, streamNode := flatten(consumersPerNode)
	ex := newExchange(cfg)
	nSenders := 0
	for _, ps := range producers {
		nSenders += len(ps)
	}

	var comm *mpi.Comm
	var queues []chan portItem // per consumer stream
	queues = make([]chan portItem, totalStreams)
	for i := range queues {
		queues[i] = make(chan portItem, 4)
	}

	if cfg.Mode == ThreadToThread {
		ex.fanout = totalStreams
		comm = cfg.Net.NewComm(totalStreams, nSenders, func(r int) int { return streamNode[r] })
	} else {
		ex.fanout = len(consumersPerNode)
		comm = cfg.Net.NewComm(len(consumersPerNode), nSenders, nil)
	}

	// Sender goroutines.
	for pn, ps := range producers {
		for _, p := range ps {
			go runSplitSender(ex, comm, pn, p, totalStreams, streamNode, consumersPerNode, route)
		}
	}

	// Receiver side.
	if cfg.Mode == ThreadToThread {
		for s := 0; s < totalStreams; s++ {
			go func(s int) {
				defer close(queues[s])
				for {
					m, ok := comm.RecvQuit(s, ex.quit)
					if !ok {
						return
					}
					deliver(queues[s], received(m), ex.quit)
				}
			}(s)
		}
	} else {
		// Per-node dispatcher: splits incoming buffers by the
		// receiver-thread column so consumer threads selectively
		// consume.
		streamBase := make([]int, len(consumersPerNode))
		base := 0
		for n, c := range consumersPerNode {
			streamBase[n] = base
			base += c
		}
		var wg sync.WaitGroup
		for n := range consumersPerNode {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for {
					m, ok := comm.RecvQuit(n, ex.quit)
					if !ok {
						return
					}
					it := received(m)
					if it.err != nil {
						// Errors (decode failures and transported producer
						// errors alike) carry no thread column.
						deliver(queues[streamBase[n]], it, ex.quit)
						continue
					}
					dispatchByThreadCol(it.b, queues, streamBase[n], consumersPerNode[n], ex.quit)
				}
			}(n)
		}
		go func() {
			wg.Wait()
			for _, q := range queues {
				close(q)
			}
		}()
	}

	ports := make([][]exec.Operator, len(consumersPerNode))
	s := 0
	for n, c := range consumersPerNode {
		for t := 0; t < c; t++ {
			ports[n] = append(ports[n], ex.newPort(queues[s]))
			s++
		}
	}
	return ports, ex
}

func runSplitSender(ex *Exchange, comm *mpi.Comm, node int, p exec.Operator,
	totalStreams int, streamNode []int, consumersPerNode []int,
	route func(*vector.Batch, []uint64) ([]uint64, error)) {

	defer comm.DoneSending()
	t2t := ex.cfg.Mode == ThreadToThread
	var bufs []sendBuffer
	if t2t {
		bufs = make([]sendBuffer, totalStreams)
	} else {
		bufs = make([]sendBuffer, len(consumersPerNode))
	}
	for d := range bufs {
		bufs[d] = sendBuffer{ranks: []int{d}, remote: !comm.Local(node, d)}
	}
	// Per-stream routing tables and reusable selection lists: rows of each
	// batch are grouped by destination stream first, then added buffer-wise
	// column by column.
	destOf := make([]int, totalStreams)
	threadOf := make([]int32, totalStreams)
	for s := 0; s < totalStreams; s++ {
		if t2t {
			destOf[s] = s
		} else {
			dn := streamNode[s]
			destOf[s] = dn
			threadOf[s] = int32(s - firstStreamOf(dn, consumersPerNode))
		}
	}
	sels := make([][]int32, totalStreams)
	fail := func(err error) {
		// Deliver the error through rank 0 so some consumer sees it.
		comm.SendQuit(node, 0, errBatch(err), ex.quit)
	}
	if err := p.Open(); err != nil {
		fail(err)
		return
	}
	defer p.Close()
	var scratch []uint64 // per-sender routing buffer, reused batch over batch
	for {
		// The per-batch cancellation point of §5's DXchg senders: a
		// cancelled query stops partitioning and stops pulling from the
		// producer subtree, so its cores are released mid-plan.
		if err := ex.ctx.Err(); err != nil {
			fail(fmt.Errorf("mpp: sender canceled: %w", context.Cause(ex.ctx)))
			return
		}
		b, err := p.Next()
		if err != nil {
			fail(err)
			return
		}
		if b == nil {
			break
		}
		rvals, err := route(b, scratch)
		if err != nil {
			fail(err)
			return
		}
		scratch = rvals
		for i := range sels {
			sels[i] = sels[i][:0]
		}
		for r, n := 0, b.Len(); r < n; r++ {
			stream := int(rvals[r] % uint64(totalStreams))
			phys := int32(r)
			if b.Sel != nil {
				phys = b.Sel[r]
			}
			sels[stream] = append(sels[stream], phys)
		}
		for s, sel := range sels {
			if len(sel) == 0 {
				continue
			}
			sb := &bufs[destOf[s]]
			sb.add(ex, b, sel, threadOf[s], !t2t)
			if sb.bytes >= ex.cfg.msgBytes() && !sb.flush(ex, comm, node) {
				return
			}
		}
	}
	for d := range bufs {
		if !bufs[d].flush(ex, comm, node) {
			return
		}
	}
}

func firstStreamOf(node int, consumersPerNode []int) int {
	s := 0
	for n := 0; n < node; n++ {
		s += consumersPerNode[n]
	}
	return s
}

// dispatchByThreadCol splits a thread-tagged batch to per-thread queues,
// stripping the tag column.
func dispatchByThreadCol(b *vector.Batch, queues []chan portItem, base, threads int, quit <-chan struct{}) {
	tcol := b.Vecs[len(b.Vecs)-1].Int32s()
	data := &vector.Batch{Vecs: b.Vecs[:len(b.Vecs)-1]}
	sels := make([][]int32, threads)
	for r, t := range tcol {
		sels[t] = append(sels[t], int32(r))
	}
	for t, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		select {
		case queues[base+t] <- portItem{b: &vector.Batch{Vecs: data.Vecs, Sel: sel}}:
		case <-quit:
			return
		}
	}
}

// received turns a message into a port item, surfacing a transported
// producer error as the item's error.
func received(m mpi.Message) portItem {
	b, err := m.Batch()
	if err == nil {
		err = asErrBatch(b)
	}
	if err != nil {
		return portItem{err: err}
	}
	return portItem{b: b}
}

// deliver queues an item for a consumer stream unless the exchange stops.
func deliver(q chan portItem, it portItem, quit <-chan struct{}) {
	select {
	case q <- it:
	case <-quit:
	}
}

// DXchgUnion funnels every producer stream to a single consumer stream on
// the given node (the 180:1 DXchgUnion of the Appendix Q1 plan).
func DXchgUnion(cfg Config, producers [][]exec.Operator, consumerNode int) (exec.Operator, *Exchange) {
	ex := newExchange(cfg)
	ex.fanout = 1
	nSenders := 0
	for _, ps := range producers {
		nSenders += len(ps)
	}
	comm := cfg.Net.NewComm(1, nSenders, func(int) int { return consumerNode })
	for pn, ps := range producers {
		for _, p := range ps {
			go runForwardSender(ex, comm, pn, p, []int{0})
		}
	}
	q := make(chan portItem, 4)
	go func() {
		defer close(q)
		for {
			m, ok := comm.RecvQuit(0, ex.quit)
			if !ok {
				return
			}
			deliver(q, received(m), ex.quit)
		}
	}()
	return ex.newPort(q), ex
}

// DXchgBroadcast replicates every producer row to every consumer thread on
// every node (the broadcast build side of a join). A node keeps the batches
// it receives in one shared log that its consumers read at their own pace,
// so no consumer waits on another: one that stops early, or never reads
// before it closes, holds up neither its siblings nor the senders. The log
// keeps the whole broadcast side per node, which is what every consumer's
// hash table holds anyway.
func DXchgBroadcast(cfg Config, producers [][]exec.Operator, consumersPerNode []int) ([][]exec.Operator, *Exchange) {
	ex := newExchange(cfg)
	ex.fanout = len(consumersPerNode)
	nSenders := 0
	for _, ps := range producers {
		nSenders += len(ps)
	}
	comm := cfg.Net.NewComm(len(consumersPerNode), nSenders, nil)
	dests := make([]int, len(consumersPerNode))
	for i := range dests {
		dests[i] = i
	}
	for pn, ps := range producers {
		for _, p := range ps {
			go runForwardSender(ex, comm, pn, p, dests)
		}
	}
	ports := make([][]exec.Operator, len(consumersPerNode))
	for n, c := range consumersPerNode {
		log := &broadcastLog{more: make(chan struct{})}
		for t := 0; t < c; t++ {
			ports[n] = append(ports[n], &logPort{log: log, stop: ex.portStop()})
		}
		go func(n int) {
			defer log.finish()
			for {
				m, ok := comm.RecvQuit(n, ex.quit)
				if !ok {
					return
				}
				log.append(received(m))
			}
		}(n)
	}
	return ports, ex
}

// broadcastLog is the append-only list of items one node received from a
// broadcast; more is closed (and replaced) whenever the log grows or ends.
type broadcastLog struct {
	mu    sync.Mutex
	items []portItem
	done  bool
	more  chan struct{}
}

func (l *broadcastLog) append(it portItem) {
	l.mu.Lock()
	l.items = append(l.items, it)
	close(l.more)
	l.more = make(chan struct{})
	l.mu.Unlock()
}

func (l *broadcastLog) finish() {
	l.mu.Lock()
	l.done = true
	close(l.more)
	l.mu.Unlock()
}

// at returns item i when the log holds it; otherwise the channel that closes
// when the log grows, or nil once the log is complete.
func (l *broadcastLog) at(i int) (it portItem, ok bool, more chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < len(l.items) {
		return l.items[i], true, nil
	}
	if l.done {
		return portItem{}, false, nil
	}
	return portItem{}, false, l.more
}

// logPort is one consumer's cursor over its node's broadcast log.
type logPort struct {
	log  *broadcastLog
	next int
	stop func()
}

func (p *logPort) Open() error { return nil }

func (p *logPort) Next() (*vector.Batch, error) {
	for {
		it, ok, more := p.log.at(p.next)
		if ok {
			p.next++
			return it.b, it.err
		}
		if more == nil {
			return nil, nil
		}
		<-more
	}
}

func (p *logPort) Close() error {
	p.stop()
	return nil
}

// runForwardSender buffers batches and sends them whole to a list of
// destination ranks (union: one; broadcast: all). Local and remote ranks
// get one buffer each, so every row is gathered at most once and encoded at
// most once whatever the fan-out.
func runForwardSender(ex *Exchange, comm *mpi.Comm, node int, p exec.Operator, dests []int) {
	defer comm.DoneSending()
	bufs := []sendBuffer{{}, {remote: true}}
	for _, d := range dests {
		i := 0
		if !comm.Local(node, d) {
			i = 1
		}
		bufs[i].ranks = append(bufs[i].ranks, d)
	}
	// A broadcast's consumers on every node must see a producer error, or
	// a node would build from a silently truncated side.
	fail := func(err error) {
		for _, d := range dests {
			comm.SendQuit(node, d, errBatch(err), ex.quit)
		}
	}
	if err := p.Open(); err != nil {
		fail(err)
		return
	}
	defer p.Close()
	for {
		if err := ex.ctx.Err(); err != nil {
			fail(fmt.Errorf("mpp: sender canceled: %w", context.Cause(ex.ctx)))
			return
		}
		b, err := p.Next()
		if err != nil {
			fail(err)
			return
		}
		if b == nil {
			break
		}
		for i := range bufs {
			sb := &bufs[i]
			if len(sb.ranks) == 0 {
				continue
			}
			sb.add(ex, b, b.Sel, 0, false)
			if sb.bytes >= ex.cfg.msgBytes() && !sb.flush(ex, comm, node) {
				return
			}
		}
	}
	for i := range bufs {
		if !bufs[i].flush(ex, comm, node) {
			return
		}
	}
}

// Error transport: errors are encoded as a one-column batch with a sentinel
// schema so they survive serialization.
const errSentinel = "\x00dxchg-error\x00"

func errBatch(err error) *vector.Batch {
	return vector.NewBatch(vector.FromString([]string{errSentinel, err.Error()}))
}

func asErrBatch(b *vector.Batch) error {
	if len(b.Vecs) == 1 && b.Vecs[0].Kind() == vector.String && b.Len() == 2 {
		s := b.Vecs[0].Strings()
		if s[0] == errSentinel {
			return &exchangeError{s[1]}
		}
	}
	return nil
}

type exchangeError struct{ msg string }

func (e *exchangeError) Error() string { return "mpp: exchange producer failed: " + e.msg }
