package mpp

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectorh/internal/compress"
	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

func producer(lo, n int) exec.Operator {
	var batches []*vector.Batch
	for off := 0; off < n; off += 200 {
		cnt := n - off
		if cnt > 200 {
			cnt = 200
		}
		ks := make([]int64, cnt)
		vs := make([]string, cnt)
		for i := 0; i < cnt; i++ {
			ks[i] = int64(lo + off + i)
			vs[i] = "v"
		}
		batches = append(batches, vector.NewBatch(vector.FromInt64(ks), vector.FromString(vs)))
	}
	return &exec.BatchSource{Batches: batches}
}

func collectAll(t *testing.T, ports [][]exec.Operator) (total int, byStream map[int][]int64) {
	t.Helper()
	byStream = map[int][]int64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	id := 0
	for _, nodePorts := range ports {
		for _, p := range nodePorts {
			wg.Add(1)
			go func(id int, p exec.Operator) {
				defer wg.Done()
				rows, err := exec.Collect(p)
				if err != nil {
					t.Errorf("stream %d: %v", id, err)
					return
				}
				mu.Lock()
				for _, r := range rows {
					byStream[id] = append(byStream[id], r[0].(int64))
					total++
				}
				mu.Unlock()
			}(id, p)
			id++
		}
	}
	wg.Wait()
	return total, byStream
}

func testBothModes(t *testing.T, fn func(t *testing.T, mode Mode)) {
	t.Run("thread-to-thread", func(t *testing.T) { fn(t, ThreadToThread) })
	t.Run("thread-to-node", func(t *testing.T) { fn(t, ThreadToNode) })
}

func TestDXchgHashSplitCompleteAndConsistent(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		net := mpi.NewNetwork(3)
		cfg := Config{Net: net, Mode: mode, MsgBytes: 1024}
		producers := [][]exec.Operator{
			{producer(0, 500), producer(500, 500)},
			{producer(1000, 500)},
			{producer(1500, 500)},
		}
		ports, ex := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{2, 2, 2})
		total, byStream := collectAll(t, ports)
		if total != 2000 {
			t.Fatalf("total = %d", total)
		}
		// No key may appear in two streams.
		owner := map[int64]int{}
		for s, keys := range byStream {
			for _, k := range keys {
				if prev, ok := owner[k]; ok && prev != s {
					t.Fatalf("key %d in streams %d and %d", k, prev, s)
				}
				owner[k] = s
			}
		}
		if ex.Stats().PeakBufferBytes <= 0 {
			t.Fatal("no buffering recorded")
		}
		wantFanout := 6
		if mode == ThreadToNode {
			wantFanout = 3
		}
		if ex.Stats().Fanout != wantFanout {
			t.Fatalf("fanout = %d, want %d", ex.Stats().Fanout, wantFanout)
		}
	})
}

func TestDXchgRemoteVsLocalAccounting(t *testing.T) {
	net := mpi.NewNetwork(2)
	cfg := Config{Net: net, Mode: ThreadToNode, MsgBytes: 512}
	producers := [][]exec.Operator{{producer(0, 1000)}, {producer(1000, 1000)}}
	ports, _ := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{1, 1})
	total, _ := collectAll(t, ports)
	if total != 2000 {
		t.Fatalf("total = %d", total)
	}
	s := net.Stats()
	if s.RemoteBytes == 0 || s.RemoteMsgs == 0 {
		t.Fatalf("no remote traffic recorded: %+v", s)
	}
	if s.LocalHandoffs == 0 {
		t.Fatalf("no intra-node pointer passes recorded: %+v", s)
	}
}

func TestThreadToNodeReducesFanoutAndBuffering(t *testing.T) {
	run := func(mode Mode) Stats {
		net := mpi.NewNetwork(4)
		cfg := Config{Net: net, Mode: mode, MsgBytes: 4096}
		producers := make([][]exec.Operator, 4)
		for n := range producers {
			for i := 0; i < 4; i++ {
				producers[n] = append(producers[n], producer(n*4000+i*1000, 1000))
			}
		}
		ports, ex := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{4, 4, 4, 4})
		total, _ := collectAll(t, ports)
		if total != 16000 {
			t.Fatalf("total = %d", total)
		}
		return ex.Stats()
	}
	t2t := run(ThreadToThread)
	t2n := run(ThreadToNode)
	if t2n.Fanout >= t2t.Fanout {
		t.Fatalf("fanout t2n=%d should be < t2t=%d", t2n.Fanout, t2t.Fanout)
	}
}

func TestDXchgUnion(t *testing.T) {
	net := mpi.NewNetwork(3)
	producers := [][]exec.Operator{{producer(0, 300)}, {producer(300, 300)}, {producer(600, 300)}}
	u, _ := DXchgUnion(Config{Net: net, MsgBytes: 2048}, producers, 0)
	rows, err := exec.Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 900 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestDXchgBroadcast(t *testing.T) {
	net := mpi.NewNetwork(2)
	producers := [][]exec.Operator{{producer(0, 100)}}
	ports, _ := DXchgBroadcast(Config{Net: net, MsgBytes: 512}, producers, []int{2, 2})
	total, byStream := collectAll(t, ports)
	if total != 400 {
		t.Fatalf("total = %d", total)
	}
	for s, keys := range byStream {
		if len(keys) != 100 {
			t.Fatalf("stream %d got %d rows, want 100", s, len(keys))
		}
	}
}

// TestDXchgBroadcastEarlyCloseNoLeak: on every node one consumer closes
// without reading while its sibling reads everything. The sibling must still
// get every row, no consumer may wait on another, and every goroutine of the
// exchange must exit once the ports are closed.
func TestDXchgBroadcastEarlyCloseNoLeak(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		time.Sleep(10 * time.Millisecond)
		baseline := runtime.NumGoroutine()
		net := mpi.NewNetwork(2)
		// 5000 rows are far more messages than any queue holds.
		producers := [][]exec.Operator{{producer(0, 2500)}, {producer(2500, 2500)}}
		ports, _ := DXchgBroadcast(Config{Net: net, Mode: mode, MsgBytes: 512}, producers, []int{2, 2})
		for _, nodePorts := range ports {
			if err := nodePorts[0].Close(); err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Collect(nodePorts[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 5000 {
				t.Fatalf("sibling of an early-closed consumer got %d rows, want 5000", len(rows))
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d vs baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestDXchgRangeSplit(t *testing.T) {
	net := mpi.NewNetwork(2)
	producers := [][]exec.Operator{{producer(0, 100)}, {producer(100, 100)}}
	ports, _ := DXchgRangeSplit(Config{Net: net, MsgBytes: 512}, producers,
		expr.Col(0, vector.Int64), []int64{49}, []int{1, 1})
	_, byStream := collectAll(t, ports)
	for _, k := range byStream[0] {
		if k > 49 {
			t.Fatalf("stream 0 received key %d", k)
		}
	}
	for _, k := range byStream[1] {
		if k <= 49 {
			t.Fatalf("stream 1 received key %d", k)
		}
	}
	if len(byStream[0]) != 50 || len(byStream[1]) != 150 {
		t.Fatalf("sizes = %d/%d", len(byStream[0]), len(byStream[1]))
	}
}

type failOp struct{}

func (failOp) Open() error                  { return nil }
func (failOp) Next() (*vector.Batch, error) { return nil, errors.New("producer exploded") }
func (failOp) Close() error                 { return nil }

func TestDXchgPropagatesProducerErrors(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		net := mpi.NewNetwork(2)
		producers := [][]exec.Operator{{failOp{}}, {producer(0, 10)}}
		ports, _ := DXchgHashSplit(Config{Net: net, Mode: mode, MsgBytes: 512}, producers,
			[]expr.Expr{expr.Col(0, vector.Int64)}, []int{1, 1})
		var sawErr atomic.Bool
		var wg sync.WaitGroup
		for _, nodePorts := range ports {
			for _, p := range nodePorts {
				wg.Add(1)
				go func(p exec.Operator) {
					defer wg.Done()
					if _, err := exec.Collect(p); err != nil {
						sawErr.Store(true)
					}
				}(p)
			}
		}
		wg.Wait()
		if !sawErr.Load() {
			t.Fatal("producer error not delivered to any consumer")
		}
	})
}

// TestDXchgBroadcastErrorReachesEveryNode: a producer error must fail every
// consumer of a broadcast, including those of a node the failing producer
// does not run on, and of every node when the first has no consumers.
func TestDXchgBroadcastErrorReachesEveryNode(t *testing.T) {
	for _, consumers := range [][]int{{1, 2}, {0, 2}} {
		net := mpi.NewNetwork(2)
		producers := [][]exec.Operator{{failOp{}}, {producer(0, 10)}}
		ports, _ := DXchgBroadcast(Config{Net: net, MsgBytes: 512}, producers, consumers)
		for n, nodePorts := range ports {
			for _, p := range nodePorts {
				if _, err := exec.Collect(p); err == nil {
					t.Fatalf("consumers %v: a consumer on node %d saw no producer error", consumers, n)
				}
			}
		}
	}
}

// dictProducer emits dictionary-coded 60-byte strings: one dense batch of
// rows values and the same vector under a selection of every other row. It
// also returns the bytes those rows take once gathered into plain vectors.
func dictProducer(rows int) (exec.Operator, int) {
	dict := &compress.StrDict{}
	for i := 0; i < 4; i++ {
		dict.Values = append(dict.Values, strings.Repeat(string(rune('a'+i)), 60))
	}
	codes := make([]uint32, rows)
	for i := range codes {
		codes[i] = uint32(i % len(dict.Values))
	}
	dense := vector.NewBatch(vector.FromDictCodes(codes, dict))
	sel := vector.NewBatch(vector.FromDictCodes(codes, dict))
	for i := 0; i < rows; i += 2 {
		sel.Sel = append(sel.Sel, int32(i))
	}
	held := (rows + len(sel.Sel)) * (60 + 16)
	return &exec.BatchSource{Batches: []*vector.Batch{dense, sel}}, held
}

// TestSendBufferChargesMaterializedStrings checks that a local send buffer
// is charged for the strings it holds: gathering dictionary codes
// materializes the values, so charging 4 bytes per code would let local
// messages overshoot MsgBytes many times over.
func TestSendBufferChargesMaterializedStrings(t *testing.T) {
	p, held := dictProducer(1024)
	u, ex := DXchgUnion(Config{Net: mpi.NewNetwork(1), MsgBytes: 1 << 20}, [][]exec.Operator{{p}}, 0)
	rows, err := exec.Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1024+512 {
		t.Fatalf("rows = %d", len(rows))
	}
	if got := ex.Stats().PeakBufferBytes; got != int64(held) {
		t.Fatalf("peak buffer = %d bytes, want the %d held", got, held)
	}
}

// TestRemoteSendIsEncodeBatchOfGatheredRows runs a split sender with one
// local and one remote destination. The remote rank's message, encoded
// straight from the producer's vectors, must be byte-identical to
// EncodeBatch of the same rows gathered into a batch; the local rank must
// still get a pointer handoff.
func TestRemoteSendIsEncodeBatchOfGatheredRows(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		dict := &compress.StrDict{Values: []string{"MAIL", "AIR", "REG AIR"}}
		src := vector.NewBatch(
			vector.FromInt64([]int64{10, 11, 12, 13, 14, 15}),
			vector.FromDictCodes([]uint32{0, 1, 2, 0, 1, 2}, dict),
			vector.FromFloat64([]float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}),
		)
		src.Sel = []int32{0, 1, 3, 4, 5}
		// Rows with an odd key go to stream 1, on the remote node.
		route := func(b *vector.Batch, _ []uint64) ([]uint64, error) {
			out := make([]uint64, b.Len())
			for r := range out {
				out[r] = uint64(b.Vecs[0].Int64s()[b.Sel[r]] % 2)
			}
			return out, nil
		}
		streamNode := []int{0, 1}
		net := mpi.NewNetwork(2)
		ex := newExchange(Config{Net: net, Mode: mode, MsgBytes: 1 << 20})
		// Two ranks either way: streams in thread-to-thread mode, nodes in
		// thread-to-node mode, with one consumer per node.
		comm := net.NewComm(2, 1, func(r int) int { return streamNode[r] })
		runSplitSender(ex, comm, 0, &exec.BatchSource{Batches: []*vector.Batch{src}}, 2, streamNode, []int{1, 1}, route)

		want := &vector.Batch{Vecs: src.Vecs, Sel: []int32{1, 3, 5}}
		if mode == ThreadToNode {
			// The receiver-thread column: thread 0 of node 1.
			want.Vecs = append(want.Vecs[:len(src.Vecs):len(src.Vecs)], vector.FromInt32(make([]int32, 6)))
		}
		remote, ok := comm.Recv(1)
		if !ok || remote.Local != nil {
			t.Fatalf("remote rank got %+v, want an encoded message", remote)
		}
		if enc := mpi.EncodeBatch(want.Compact()); !bytes.Equal(remote.Data, enc) {
			t.Fatalf("remote message\n% x\nwant EncodeBatch of the gathered rows\n% x", remote.Data, enc)
		}
		local, ok := comm.Recv(0)
		if !ok || local.Local == nil || local.Local.Len() != 2 {
			t.Fatalf("local rank got %+v, want a 2-row pointer handoff", local)
		}
		if s := net.Stats(); s.RemoteMsgs != 1 || s.LocalHandoffs != 1 || s.RemoteBytes != int64(len(remote.Data)) {
			t.Fatalf("traffic = %+v", s)
		}
	})
}

func BenchmarkDXchgFanout(b *testing.B) {
	// Ablation: thread-to-thread vs thread-to-node on a 4x4 topology.
	for _, mode := range []Mode{ThreadToThread, ThreadToNode} {
		name := "thread-to-thread"
		if mode == ThreadToNode {
			name = "thread-to-node"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := mpi.NewNetwork(4)
				cfg := Config{Net: net, Mode: mode, MsgBytes: 8192}
				producers := make([][]exec.Operator, 4)
				for n := range producers {
					for j := 0; j < 4; j++ {
						producers[n] = append(producers[n], producer(n*8000+j*2000, 2000))
					}
				}
				ports, _ := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{4, 4, 4, 4})
				var wg sync.WaitGroup
				for _, nodePorts := range ports {
					for _, p := range nodePorts {
						wg.Add(1)
						go func(p exec.Operator) {
							defer wg.Done()
							exec.Collect(p)
						}(p)
					}
				}
				wg.Wait()
			}
		})
	}
}
