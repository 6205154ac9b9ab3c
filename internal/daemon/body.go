package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Body codec of the daemon protocol messages. Every body is
//
//	0x00 | version | fields
//
// with the fields in declaration order, fixed-width little-endian:
// int and uint64 as 8 bytes, float64 as its IEEE-754 bits, bool as one
// byte (0 or 1), string and []byte as a uint32 length and the bytes,
// []float64 as a uint32 count and 8 bytes each, []string as a uint32
// count and that many strings. Decoding is strict, so a body that
// decodes re-encodes to the same bytes: lengths are bounded by the
// remaining input before anything is allocated, bool bytes other than
// 0 and 1 and trailing bytes are rejected. Empty slices decode as nil,
// as they did under gob.
//
// A gob stream opens with a non-zero byte count, so a gob body from a
// peer that predates this codec fails with errLegacyBody instead of
// being mis-read.
const (
	bodyMagic   = 0x00
	bodyVersion = 1
)

var errLegacyBody = errors.New("legacy gob body: the peer predates the binary body codec (upgrade it)")

func appendHeader(b []byte) []byte { return append(b, bodyMagic, bodyVersion) }

func appendUint(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendInt(b []byte, v int) []byte { return appendUint(b, uint64(v)) }

func appendFloat(b []byte, v float64) []byte { return appendUint(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendLen(b []byte, n int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(n)) }

func appendString(b []byte, s string) []byte { return append(appendLen(b, len(s)), s...) }

func appendBytes(b []byte, p []byte) []byte { return append(appendLen(b, len(p)), p...) }

func appendFloats(b []byte, xs []float64) []byte {
	b = appendLen(b, len(xs))
	for _, x := range xs {
		b = appendFloat(b, x)
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendLen(b, len(ss))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// bodyReader reads fields in order. The first failure sticks: later
// reads return zero values, and done reports it.
type bodyReader struct {
	b   []byte
	err error
}

// readBody checks the header and returns a reader over the fields.
func readBody(b []byte) bodyReader {
	switch {
	case len(b) > 0 && b[0] != bodyMagic:
		return bodyReader{err: errLegacyBody}
	case len(b) < 2:
		return bodyReader{err: fmt.Errorf("short header (%d bytes)", len(b))}
	case b[1] != bodyVersion:
		return bodyReader{err: fmt.Errorf("body version %d, this node speaks %d", b[1], bodyVersion)}
	}
	return bodyReader{b: b[2:]}
}

// done reports the first failure, or trailing bytes, naming the message.
func (r *bodyReader) done(msg string) error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("daemon: decode %s body: %w", msg, r.err)
	}
	return nil
}

func (r *bodyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = fmt.Errorf("truncated: need %d bytes, have %d", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *bodyReader) uint() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *bodyReader) int() int { return int(r.uint()) }

func (r *bodyReader) float() float64 { return math.Float64frombits(r.uint()) }

func (r *bodyReader) bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.err = fmt.Errorf("bool byte %#x", p[0])
	}
	return p[0] == 1
}

// count reads a length prefix and checks that count elements of at
// least minSize bytes each fit in the remaining input.
func (r *bodyReader) count(minSize int) int {
	p := r.take(4)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > len(r.b)/minSize {
		r.err = fmt.Errorf("length %d exceeds the %d remaining bytes", n, len(r.b))
		return 0
	}
	return n
}

func (r *bodyReader) string() string { return string(r.take(r.count(1))) }

// bytes returns a copy: the transport reuses the buffer it decodes from.
func (r *bodyReader) bytes() []byte {
	p := r.take(r.count(1))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (r *bodyReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.float()
	}
	return xs
}

func (r *bodyReader) strings() []string {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.string()
	}
	return ss
}

// Field order in each composite literal below is the wire order: Go
// evaluates the reads left to right.

func (m GetRequest) AppendBody(b []byte) []byte {
	b = appendInt(appendHeader(b), m.Client)
	b = appendFloats(b, m.ClientCoord)
	b = appendString(b, m.Object)
	return appendFloat(b, m.Bytes)
}

func (m *GetRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = GetRequest{Client: r.int(), ClientCoord: r.floats(), Object: r.string(), Bytes: r.float()}
	return r.done("GetRequest")
}

func (m GetResponse) AppendBody(b []byte) []byte {
	return appendUint(appendBytes(appendHeader(b), m.Data), m.Version)
}

func (m *GetResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = GetResponse{Data: r.bytes(), Version: r.uint()}
	return r.done("GetResponse")
}

func (m PutRequest) AppendBody(b []byte) []byte {
	b = appendString(appendHeader(b), m.Object)
	return appendUint(appendBytes(b, m.Data), m.Version)
}

func (m *PutRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = PutRequest{Object: r.string(), Data: r.bytes(), Version: r.uint()}
	return r.done("PutRequest")
}

func (m DeleteRequest) AppendBody(b []byte) []byte { return appendString(appendHeader(b), m.Object) }

func (m *DeleteRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = DeleteRequest{Object: r.string()}
	return r.done("DeleteRequest")
}

func (m MicrosRequest) AppendBody(b []byte) []byte { return appendString(appendHeader(b), m.Object) }

func (m *MicrosRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = MicrosRequest{Object: r.string()}
	return r.done("MicrosRequest")
}

func (m MicrosResponse) AppendBody(b []byte) []byte { return appendBytes(appendHeader(b), m.Encoded) }

func (m *MicrosResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = MicrosResponse{Encoded: r.bytes()}
	return r.done("MicrosResponse")
}

func (m DecayRequest) AppendBody(b []byte) []byte { return appendFloat(appendHeader(b), m.Factor) }

func (m *DecayRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = DecayRequest{Factor: r.float()}
	return r.done("DecayRequest")
}

func (m StatsResponse) AppendBody(b []byte) []byte {
	b = appendInt(appendInt(appendHeader(b), m.Node), m.Objects)
	return appendUint(appendUint(b, uint64(m.Bytes)), uint64(m.Accesses))
}

func (m *StatsResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = StatsResponse{Node: r.int(), Objects: r.int(), Bytes: int64(r.uint()), Accesses: int64(r.uint())}
	return r.done("StatsResponse")
}

func (m CoordResponse) AppendBody(b []byte) []byte {
	b = appendFloats(appendInt(appendHeader(b), m.Node), m.Pos)
	return appendFloat(b, m.Height)
}

func (m *CoordResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = CoordResponse{Node: r.int(), Pos: r.floats(), Height: r.float()}
	return r.done("CoordResponse")
}

func (m ListResponse) AppendBody(b []byte) []byte { return appendStrings(appendHeader(b), m.Objects) }

func (m *ListResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = ListResponse{Objects: r.strings()}
	return r.done("ListResponse")
}

func (m MetricsResponse) AppendBody(b []byte) []byte { return appendBytes(appendHeader(b), m.JSON) }

func (m *MetricsResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = MetricsResponse{JSON: r.bytes()}
	return r.done("MetricsResponse")
}

func (m TraceResponse) AppendBody(b []byte) []byte { return appendBytes(appendHeader(b), m.JSON) }

func (m *TraceResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = TraceResponse{JSON: r.bytes()}
	return r.done("TraceResponse")
}

func (m SLOResponse) AppendBody(b []byte) []byte { return appendBytes(appendHeader(b), m.JSON) }

func (m *SLOResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = SLOResponse{JSON: r.bytes()}
	return r.done("SLOResponse")
}

func (m ExplainRequest) AppendBody(b []byte) []byte {
	return appendString(appendInt(appendHeader(b), m.Epoch), m.ObjectID)
}

func (m *ExplainRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = ExplainRequest{Epoch: r.int(), ObjectID: r.string()}
	return r.done("ExplainRequest")
}

func (m ExplainResponse) AppendBody(b []byte) []byte { return appendBytes(appendHeader(b), m.JSON) }

func (m *ExplainResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = ExplainResponse{JSON: r.bytes()}
	return r.done("ExplainResponse")
}

func (m ReplicateRequest) AppendBody(b []byte) []byte {
	return appendInt(appendUint(appendHeader(b), m.From), m.Max)
}

func (m *ReplicateRequest) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = ReplicateRequest{From: r.uint(), Max: r.int()}
	return r.done("ReplicateRequest")
}

func (m ReplicateResponse) AppendBody(b []byte) []byte {
	b = appendBool(appendBytes(appendHeader(b), m.Frames), m.Snapshot)
	return appendUint(appendUint(appendUint(b, m.SnapSeq), m.SnapTerm), m.Last)
}

func (m *ReplicateResponse) DecodeBody(b []byte) error {
	r := readBody(b)
	*m = ReplicateResponse{Frames: r.bytes(), Snapshot: r.bool(), SnapSeq: r.uint(), SnapTerm: r.uint(), Last: r.uint()}
	return r.done("ReplicateResponse")
}
