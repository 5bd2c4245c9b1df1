package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"vectorh/internal/vector"
)

// The wire format of a remote exchange message is PAX-like, "such that
// Receivers can return vectors directly out of these buffers":
//
//	uvarint column count, uvarint row count,
//	then per column: one kind byte and the packed values —
//	  int64/float64 as 8 little-endian bytes, int32 as 4, bool as one 0/1
//	  byte, string as a uvarint length followed by the bytes.
//
// Wire is the only encoder of that format; EncodeBatch is Wire applied to
// every live row of one batch.

// Wire is one outgoing message under construction. Rows are encoded as they
// are appended, straight from the producer's vectors under a selection, into
// one reusable byte buffer per column; Flush assembles the exact-size
// message. The zero Wire is ready to use. The column layout (count and kinds)
// is fixed by the first append.
type Wire struct {
	kinds []vector.Kind
	cols  [][]byte
	rows  int
}

// Append encodes the rows of vecs that sel selects (physical positions; nil
// selects every row) and returns the number of encoded bytes it added.
func (w *Wire) Append(vecs []*vector.Vec, sel []int32) int {
	return w.append(vecs, sel, false, 0)
}

// AppendTagged is Append plus a trailing int32 column that holds tag for
// every appended row: the receiver-thread column of thread-to-node
// exchanges.
func (w *Wire) AppendTagged(vecs []*vector.Vec, sel []int32, tag int32) int {
	return w.append(vecs, sel, true, tag)
}

func (w *Wire) append(vecs []*vector.Vec, sel []int32, tagged bool, tag int32) int {
	if w.cols == nil {
		for _, v := range vecs {
			w.kinds = append(w.kinds, v.Kind())
		}
		if tagged {
			w.kinds = append(w.kinds, vector.Int32)
		}
		w.cols = make([][]byte, len(w.kinds))
	}
	n := rowsOf(vecs, sel)
	if sel == nil {
		sel = denseSel(n)
	}
	added := 0
	for i, v := range vecs {
		before := len(w.cols[i])
		w.cols[i] = appendColumn(w.cols[i], v, sel)
		added += len(w.cols[i]) - before
	}
	if tagged {
		c := w.cols[len(vecs)]
		off := len(c)
		c = extend(c, 4*n)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint32(c[off+4*j:], uint32(tag))
		}
		w.cols[len(vecs)] = c
		added += 4 * n
	}
	w.rows += n
	return added
}

// Flush returns the message holding every row appended since the last
// Flush, in one allocation of exactly its size, and empties the Wire while
// keeping its column buffers.
func (w *Wire) Flush() []byte {
	size := uvarintLen(uint64(len(w.kinds))) + uvarintLen(uint64(w.rows)) + len(w.kinds)
	for _, c := range w.cols {
		size += len(c)
	}
	msg := make([]byte, 0, size)
	msg = binary.AppendUvarint(msg, uint64(len(w.kinds)))
	msg = binary.AppendUvarint(msg, uint64(w.rows))
	for i, k := range w.kinds {
		msg = append(msg, byte(k))
		msg = append(msg, w.cols[i]...)
		w.cols[i] = w.cols[i][:0]
	}
	w.rows = 0
	return msg
}

// EncodeBatch serializes the live rows of a batch (its Sel, if any, is
// applied while encoding).
func EncodeBatch(b *vector.Batch) []byte {
	var w Wire
	w.Append(b.Vecs, b.Sel)
	return w.Flush()
}

// rowsOf returns the row count sel selects from vecs; a batch without
// columns carries no rows.
func rowsOf(vecs []*vector.Vec, sel []int32) int {
	switch {
	case len(vecs) == 0:
		return 0
	case sel != nil:
		return len(sel)
	default:
		return vecs[0].Len()
	}
}

// identity is the selection of every row of a full vector.
var identity = func() (s [vector.MaxSize]int32) {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// denseSel returns the selection of rows 0..n-1.
func denseSel(n int) []int32 {
	if n <= len(identity) {
		return identity[:n]
	}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// extend grows b by n bytes, returning the longer slice.
func extend(b []byte, n int) []byte {
	return slices.Grow(b, n)[:len(b)+n]
}

func uvarintLen(x uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], x)
}

// appendColumn encodes the rows of v that sel selects. Dictionary-coded
// strings are encoded from the dictionary without materializing the vector.
func appendColumn(dst []byte, v *vector.Vec, sel []int32) []byte {
	off := len(dst)
	switch v.Kind() {
	case vector.Int64:
		vals := v.Int64s()
		dst = extend(dst, 8*len(sel))
		for j, i := range sel {
			binary.LittleEndian.PutUint64(dst[off+8*j:], uint64(vals[i]))
		}
	case vector.Float64:
		vals := v.Float64s()
		dst = extend(dst, 8*len(sel))
		for j, i := range sel {
			binary.LittleEndian.PutUint64(dst[off+8*j:], math.Float64bits(vals[i]))
		}
	case vector.Int32:
		vals := v.Int32s()
		dst = extend(dst, 4*len(sel))
		for j, i := range sel {
			binary.LittleEndian.PutUint32(dst[off+4*j:], uint32(vals[i]))
		}
	case vector.Bool:
		vals := v.Bools()
		dst = extend(dst, len(sel))
		for j, i := range sel {
			if vals[i] {
				dst[off+j] = 1
			} else {
				dst[off+j] = 0
			}
		}
	case vector.String:
		if v.IsDict() {
			dict, codes := v.Dict().Values, v.DictCodes()
			for _, i := range sel {
				dst = appendString(dst, dict[codes[i]])
			}
		} else {
			vals := v.Strings()
			for _, i := range sel {
				dst = appendString(dst, vals[i])
			}
		}
	default:
		panic("mpi: encode of invalid vector")
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

var (
	errHeader    = errors.New("mpi: bad batch header")
	errTruncated = errors.New("mpi: truncated batch")
	errTrailing  = errors.New("mpi: trailing bytes after batch")
	errKind      = errors.New("mpi: unknown column kind")
)

// DecodeBatch inverts EncodeBatch. Hostile input is an error, never a
// panic: the column and row counts are bounded by the bytes that remain
// before anything is allocated, so no header can claim more memory than a
// small multiple of the message's own size. Each string column is copied
// out of the message in one allocation that its values share.
func DecodeBatch(data []byte) (*vector.Batch, error) {
	nc, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errHeader
	}
	data = data[sz:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errHeader
	}
	data = data[sz:]
	// Every column needs its kind byte, and every row at least one byte in
	// each column.
	if nc > uint64(len(data)) || (nc > 0 && n > uint64(len(data))) {
		return nil, errTruncated
	}
	b := &vector.Batch{Vecs: make([]*vector.Vec, nc)}
	rows := int(n)
	for ci := range b.Vecs {
		if len(data) < 1 {
			return nil, errTruncated
		}
		kind := vector.Kind(data[0])
		data = data[1:]
		var v *vector.Vec
		switch kind {
		case vector.Int64:
			if len(data)/8 < rows {
				return nil, errTruncated
			}
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
			data = data[8*rows:]
			v = vector.FromInt64(vals)
		case vector.Float64:
			if len(data)/8 < rows {
				return nil, errTruncated
			}
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
			data = data[8*rows:]
			v = vector.FromFloat64(vals)
		case vector.Int32:
			if len(data)/4 < rows {
				return nil, errTruncated
			}
			vals := make([]int32, rows)
			for i := range vals {
				vals[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
			data = data[4*rows:]
			v = vector.FromInt32(vals)
		case vector.Bool:
			if len(data) < rows {
				return nil, errTruncated
			}
			vals := make([]bool, rows)
			for i := range vals {
				vals[i] = data[i] != 0
			}
			data = data[rows:]
			v = vector.FromBool(vals)
		case vector.String:
			var err error
			if v, data, err = decodeStrings(data, rows); err != nil {
				return nil, err
			}
		default:
			return nil, errKind
		}
		b.Vecs[ci] = v
	}
	if len(data) != 0 {
		return nil, errTrailing
	}
	return b, nil
}

// decodeStrings decodes a string column of n values from the front of data
// and returns the rest. A first pass validates every length and finds the
// column's end; the column's bytes are then copied into one string whose
// substrings become the values.
func decodeStrings(data []byte, n int) (*vector.Vec, []byte, error) {
	if len(data) < n {
		return nil, nil, errTruncated
	}
	end := 0
	for i := 0; i < n; i++ {
		l, sz := binary.Uvarint(data[end:])
		if sz <= 0 || l > uint64(len(data)-end-sz) {
			return nil, nil, errTruncated
		}
		end += sz + int(l)
	}
	blob := string(data[:end])
	vals := make([]string, n)
	off := 0
	for i := range vals {
		l, sz := binary.Uvarint(data[off:])
		off += sz
		vals[i] = blob[off : off+int(l)]
		off += int(l)
	}
	return vector.FromString(vals), data[end:], nil
}
