package mpi

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/vector"
)

// allKinds returns a batch with one column of every kind plus a
// dictionary-coded string column.
func allKinds() *vector.Batch {
	dict := &compress.StrDict{Values: []string{"", "BUILDING", "日本語", "MACHINERY"}}
	return vector.NewBatch(
		vector.FromInt64([]int64{-1, 2, 1 << 40, 0}),
		vector.FromInt32([]int32{7, -8, 9, 0}),
		vector.FromFloat64([]float64{1.5, -2.5, 0, 1e300}),
		vector.FromString([]string{"", "abc", "日本", "x"}),
		vector.FromBool([]bool{true, false, true, false}),
		vector.FromDictCodes([]uint32{2, 0, 3, 2}, dict),
	)
}

func liveRows(b *vector.Batch) [][]any {
	out := make([][]any, b.Len())
	for r := range out {
		out[r] = b.Row(r)
	}
	return out
}

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	sel := allKinds()
	sel.Sel = []int32{2, 0, 3}
	emptySel := allKinds()
	emptySel.Sel = []int32{}
	cases := map[string]*vector.Batch{
		"dense":      allKinds(),
		"sel":        sel,
		"empty-sel":  emptySel,
		"zero-rows":  vector.NewBatch(vector.New(vector.Int64, 0), vector.New(vector.String, 0), vector.New(vector.Bool, 0)),
		"no-columns": vector.NewBatch(),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := DecodeBatch(EncodeBatch(b))
			if err != nil {
				t.Fatal(err)
			}
			if got.Sel != nil || got.NumCols() != b.NumCols() {
				t.Fatalf("decoded %d columns (sel %v), want %d dense", got.NumCols(), got.Sel, b.NumCols())
			}
			for i, v := range got.Vecs {
				if v.Kind() != b.Vecs[i].Kind() || v.Len() != b.Len() {
					t.Fatalf("column %d decoded as %v×%d, want %v×%d", i, v.Kind(), v.Len(), b.Vecs[i].Kind(), b.Len())
				}
			}
			if g, w := liveRows(got), liveRows(b); !reflect.DeepEqual(g, w) {
				t.Fatalf("round trip = %v, want %v", g, w)
			}
		})
	}
	if _, err := DecodeBatch([]byte{1, 2}); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

// TestWireMatchesEncodeBatch appends row groups the way a sender does —
// several selections, thread tags, a reused Wire — and checks every flushed
// message against EncodeBatch of the same rows gathered into a batch.
func TestWireMatchesEncodeBatch(t *testing.T) {
	src := allKinds()
	groups := []struct {
		sel []int32
		tag int32
	}{{[]int32{3, 1}, 1}, {nil, 0}, {[]int32{0}, 2}}
	var w Wire
	for round := 0; round < 2; round++ {
		want := vector.NewBatch()
		for _, v := range src.Vecs {
			want.Vecs = append(want.Vecs, vector.New(v.Kind(), 0))
		}
		tags := vector.New(vector.Int32, 0)
		want.Vecs = append(want.Vecs, tags)
		added := 0
		for _, g := range groups {
			added += w.AppendTagged(src.Vecs, g.sel, g.tag)
			n := len(g.sel)
			for i, v := range src.Vecs {
				if g.sel == nil {
					n = v.Len()
					want.Vecs[i].AppendRange(v, 0, n)
				} else {
					want.Vecs[i].AppendGather(v, g.sel)
				}
			}
			for range n {
				tags.AppendInt32(g.tag)
			}
		}
		msg, enc := w.Flush(), EncodeBatch(want)
		if !bytes.Equal(msg, enc) {
			t.Fatalf("round %d: wire message\n% x\nwant EncodeBatch\n% x", round, msg, enc)
		}
		if cap(msg) != len(msg) {
			t.Fatalf("round %d: message cap %d for %d bytes", round, cap(msg), len(msg))
		}
		if header := uvarintLen(uint64(len(want.Vecs))) + uvarintLen(uint64(want.Len())) + len(want.Vecs); added != len(msg)-header {
			t.Fatalf("round %d: appends reported %d bytes, message payload is %d", round, added, len(msg)-header)
		}
	}
}

func TestDecodeBatchHostileHeaders(t *testing.T) {
	header := func(cols, rows uint64, rest ...byte) []byte {
		b := binary.AppendUvarint(nil, cols)
		b = binary.AppendUvarint(b, rows)
		return append(b, rest...)
	}
	cases := map[string][]byte{
		// n*8 wraps to 0 for n = 2^61: the length check must not multiply.
		"int64-rows-wrap":  header(1, 1<<61, byte(vector.Int64), 0),
		"float-rows-wrap":  header(1, 1<<61, byte(vector.Float64), 0),
		"int32-rows-wrap":  header(1, 1<<62, byte(vector.Int32), 0),
		"string-rows-huge": header(1, 1<<40, byte(vector.String), 1, 'a'),
		"bool-rows-huge":   header(1, 1<<40, byte(vector.Bool), 1),
		"columns-huge":     header(1<<40, 0),
		"columns-max":      header(^uint64(0), 1),
		"unknown-kind":     header(1, 0, 0x7f),
		"trailing-bytes":   append(EncodeBatch(allKinds()), 0),
		"string-len-huge":  header(1, 1, byte(vector.String), 0xff, 0xff, 0xff, 0xff, 0x0f, 'a'),
		"empty":            {},
	}
	if got := len(cases["int64-rows-wrap"]); got != 12 {
		t.Fatalf("int64-rows-wrap is %d bytes, want 12", got)
	}
	for name, data := range cases {
		if _, err := DecodeBatch(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	enc := EncodeBatch(allKinds())
	for n := range enc {
		if _, err := DecodeBatch(enc[:n]); err == nil {
			t.Errorf("%d-byte prefix of a %d-byte message decoded without error", n, len(enc))
		}
	}
}

// fuzzSeeds are the EncodeBatch outputs FuzzDecodeBatch starts from: every
// kind, dictionary-coded strings, batches with Sel, and edge shapes. The
// same inputs are committed under testdata/fuzz/FuzzDecodeBatch.
func fuzzSeeds() [][]byte {
	sel := allKinds()
	sel.Sel = []int32{3, 0}
	dict := &compress.StrDict{Values: []string{"AIR", "MAIL", "TRUCK"}}
	dictSel := vector.NewBatch(vector.FromDictCodes([]uint32{0, 1, 2, 1, 0}, dict), vector.FromInt64([]int64{1, 2, 3, 4, 5}))
	dictSel.Sel = []int32{1, 4}
	return [][]byte{
		EncodeBatch(allKinds()),
		EncodeBatch(sel),
		EncodeBatch(dictSel),
		EncodeBatch(vector.NewBatch(vector.New(vector.Float64, 0))),
		EncodeBatch(vector.NewBatch()),
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to DecodeBatch. It must never panic
// or over-allocate. When the bytes decode, the batch must be well formed,
// re-encoding must round-trip exactly (decode(encode(b)) re-encodes to the
// same bytes), encoding a selection of it must equal encoding the gathered
// rows, and truncating or extending the canonical encoding must make
// decoding fail.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		n := b.Len()
		for i, v := range b.Vecs {
			if v.Len() != n {
				t.Fatalf("column %d has %d rows, column 0 has %d", i, v.Len(), n)
			}
		}
		if len(b.Vecs) > 0 && n > len(data) {
			t.Fatalf("%d rows decoded from %d bytes", n, len(data))
		}
		enc := EncodeBatch(b)
		again, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if reenc := EncodeBatch(again); !bytes.Equal(reenc, enc) {
			t.Fatalf("round trip changed the encoding:\n% x\n% x", enc, reenc)
		}
		var sel []int32
		for r := 0; r < n; r += 2 {
			sel = append(sel, int32(r))
		}
		selected := &vector.Batch{Vecs: b.Vecs, Sel: sel}
		if got, want := EncodeBatch(selected), EncodeBatch(selected.Compact()); !bytes.Equal(got, want) {
			t.Fatalf("encoding under Sel differs from encoding the gathered rows")
		}
		for _, cut := range []int{len(enc) - 1, len(enc) / 2, 0} {
			if _, err := DecodeBatch(enc[:cut]); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte message decoded", cut, len(enc))
			}
		}
		if _, err := DecodeBatch(append(enc, 0)); err == nil {
			t.Fatal("message with a trailing byte decoded")
		}
	})
}
