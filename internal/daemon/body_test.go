package daemon

import (
	"bytes"
	"encoding/gob"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/georep/georep/internal/transport"
)

// protocolMessages lists every request and response type of the daemon
// protocol. It is also the compile-time check that each implements
// transport.Body: a type missing from here, or missing a method, would
// silently travel as gob. TestProtocolMessagesListed keeps the list in
// step with daemon.go.
var protocolMessages = []transport.Body{
	(*GetRequest)(nil), (*GetResponse)(nil),
	(*PutRequest)(nil), (*DeleteRequest)(nil),
	(*MicrosRequest)(nil), (*MicrosResponse)(nil),
	(*DecayRequest)(nil), (*StatsResponse)(nil),
	(*CoordResponse)(nil), (*ListResponse)(nil),
	(*MetricsResponse)(nil), (*TraceResponse)(nil), (*SLOResponse)(nil),
	(*ExplainRequest)(nil), (*ExplainResponse)(nil),
	(*ReplicateRequest)(nil), (*ReplicateResponse)(nil),
}

func newMessage(proto transport.Body) transport.Body {
	return reflect.New(reflect.TypeOf(proto).Elem()).Interface().(transport.Body)
}

// TestProtocolMessagesListed parses daemon.go and checks that every
// *Request and *Response type it declares is in protocolMessages.
func TestProtocolMessagesListed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "daemon.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range protocolMessages {
		listed[reflect.TypeOf(m).Elem().Name()] = true
	}
	declared := 0
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		name := ts.Name.Name
		if strings.HasSuffix(name, "Request") || strings.HasSuffix(name, "Response") {
			declared++
			if !listed[name] {
				t.Errorf("%s is not in protocolMessages (and may lack a binary body)", name)
			}
		}
		return true
	})
	if declared != len(protocolMessages) {
		t.Errorf("daemon.go declares %d protocol messages, protocolMessages lists %d", declared, len(protocolMessages))
	}
}

// sameValue is field-wise equality under the codec's contract: floats
// compare by bit pattern (NaN payloads survive) and a nil slice equals
// an empty one, as under gob.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

var specialFloats = []float64{math.NaN(), math.Float64frombits(0x7ff8dead00000001), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}

// spice overwrites some of quick's field values with the edge cases it
// never draws: NaN and infinities, extreme integers, nil, empty and
// large slices and strings.
func spice(v reflect.Value, r *rand.Rand) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if r.Intn(2) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(specialFloats[r.Intn(len(specialFloats))])
		case reflect.Int, reflect.Int64:
			f.SetInt([]int64{math.MinInt64, math.MaxInt64, -1, 0}[r.Intn(4)])
		case reflect.Uint64:
			f.SetUint([]uint64{0, math.MaxUint64}[r.Intn(2)])
		case reflect.String:
			f.SetString([]string{"", strings.Repeat("é", 1<<15)}[r.Intn(2)])
		case reflect.Slice:
			switch r.Intn(3) {
			case 0:
				f.Set(reflect.Zero(f.Type()))
			case 1:
				f.Set(reflect.MakeSlice(f.Type(), 0, 0))
			default:
				n := 1 << 16
				if f.Type().Elem().Kind() != reflect.Uint8 {
					n = 1 << 10
				}
				s := reflect.MakeSlice(f.Type(), n, n)
				for j := 0; j < n; j++ {
					switch e := s.Index(j); e.Kind() {
					case reflect.Uint8:
						e.SetUint(uint64(r.Intn(256)))
					case reflect.Float64:
						e.SetFloat(specialFloats[r.Intn(len(specialFloats))])
					case reflect.String:
						e.SetString(strings.Repeat("k", r.Intn(4)))
					}
				}
				f.Set(s)
			}
		}
	}
}

// TestBodyRoundTripQuick: for every protocol message, decoding an
// encoded value gives the value back, and re-encoding gives the same
// bytes.
func TestBodyRoundTripQuick(t *testing.T) {
	for _, proto := range protocolMessages {
		typ := reflect.TypeOf(proto).Elem()
		t.Run(typ.Name(), func(t *testing.T) {
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				v, ok := quick.Value(typ, r)
				if !ok {
					t.Fatalf("quick cannot generate %s", typ)
				}
				spice(v, r)
				in := reflect.New(typ)
				in.Elem().Set(v)
				enc := in.Interface().(transport.Body).AppendBody(nil)
				out := newMessage(proto)
				if err := out.DecodeBody(enc); err != nil {
					t.Errorf("decode: %v", err)
					return false
				}
				if !sameValue(v, reflect.ValueOf(out).Elem()) {
					t.Errorf("round trip changed the value:\n in  %.200v\n out %.200v", v, reflect.ValueOf(out).Elem())
					return false
				}
				return bytes.Equal(out.AppendBody(nil), enc)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBodyRejectsMalformed pins the strict decoder: truncation, a lying
// length, trailing bytes, a bad bool byte and a wrong version all fail.
func TestBodyRejectsMalformed(t *testing.T) {
	good := ReplicateResponse{Frames: []byte("abc"), Snapshot: true, Last: 7}.AppendBody(nil)
	bad := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
		"version":   append([]byte{bodyMagic, bodyVersion + 1}, good[2:]...),
		"bool byte": func() []byte { b := append([]byte(nil), good...); b[2+4+3] = 2; return b }(),
		"length":    append([]byte{bodyMagic, bodyVersion, 0xff, 0xff, 0xff, 0x7f}, good[6:]...),
	}
	for name, b := range bad {
		var m ReplicateResponse
		if err := m.DecodeBody(b); err == nil {
			t.Errorf("%s: decoded %x as %+v", name, b, m)
		}
	}
	var m ReplicateResponse
	if err := m.DecodeBody(good); err != nil || string(m.Frames) != "abc" || !m.Snapshot || m.Last != 7 {
		t.Fatalf("good body: %+v, %v", m, err)
	}
}

// legacyBody sends raw bytes as a request body, standing in for a peer
// that still gob-encodes its bodies.
type legacyBody []byte

func (b legacyBody) AppendBody(dst []byte) []byte { return append(dst, b...) }

// TestLegacyGobBodyRejected: a gob body from an old-version peer comes
// back as a RemoteError naming the codec mismatch, and is never
// mis-decoded into a request.
func TestLegacyGobBodyRejected(t *testing.T) {
	n, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := c.Put("obj", []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	raw, err := transport.Dial(n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for method, req := range map[string]any{
		MethodGet:    GetRequest{Client: 3, ClientCoord: []float64{1, 2}, Object: "obj"},
		MethodPut:    PutRequest{Object: "obj", Data: []byte("old"), Version: 2},
		MethodDelete: DeleteRequest{Object: "obj"},
		MethodMicros: MicrosRequest{Object: "obj"},
		MethodDecay:  DecayRequest{Factor: 0.5},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp GetResponse
		_, err := raw.Call(method, legacyBody(buf.Bytes()), &resp)
		var remote *transport.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Message, "legacy gob body") {
			t.Errorf("%s with a gob body: err = %v, want a RemoteError naming the legacy gob body", method, err)
		}
	}
	if got := n.Metrics().Counter("daemon_summarized_accesses_total").Value(); got != 0 {
		t.Errorf("legacy get was summarized (%d accesses)", got)
	}
	resp, _, err := c.Get(3, []float64{1, 2}, "obj")
	if err != nil || string(resp.Data) != "payload" || resp.Version != 1 {
		t.Fatalf("node after legacy bodies: %+v, %v", resp, err)
	}
}

// TestGetRoundTripAllocs bounds the allocations of one loopback Get
// round trip, client and server together, with headroom over the 12
// measured when the bound was set (nested gob bodies cost 389).
func TestGetRoundTripAllocs(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	if err := c.Put("obj", []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	coord := []float64{1, 2}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := c.Get(3, coord, "obj"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("loopback Get round trip allocates %.0f times, want <= 64", allocs)
	}
	t.Logf("%.0f allocs per Get round trip", allocs)
}

// allocBytes returns the heap bytes allocated while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDaemonBodies feeds arbitrary bytes to every body decoder. A
// decoder must not panic or allocate beyond what the input's size
// allows (decoded slices cost at most 4x their input bytes, []string
// headers against 4-byte length prefixes; the slack covers the error
// value), and a body it accepts must re-encode to the same bytes and
// decode again to the same value.
func FuzzDaemonBodies(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, proto := range protocolMessages {
		f.Add(newMessage(proto).AppendBody(nil))
		typ := reflect.TypeOf(proto).Elem()
		v, _ := quick.Value(typ, r)
		p := reflect.New(typ)
		p.Elem().Set(v)
		f.Add(p.Interface().(transport.Body).AppendBody(nil))
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(GetRequest{Client: 1, Object: "o"}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Add([]byte{bodyMagic, bodyVersion, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, in []byte) {
		for _, proto := range protocolMessages {
			m := newMessage(proto)
			var err error
			got, limit := allocBytes(func() { err = m.DecodeBody(in) }), uint64(8*len(in)+4096)
			// The counter is process-wide, so an over-limit reading is
			// retried: the decode allocates the same on every run.
			for i := 0; i < 3 && got > limit; i++ {
				again := newMessage(proto)
				got = min(got, allocBytes(func() { _ = again.DecodeBody(in) }))
			}
			name := reflect.TypeOf(m).Elem().Name()
			if got > limit {
				t.Fatalf("%s: decoding %d bytes allocated %d, limit %d", name, len(in), got, limit)
			}
			if err != nil {
				continue
			}
			out := m.AppendBody(nil)
			if !bytes.Equal(out, in) {
				t.Fatalf("%s: accepted %x but re-encodes as %x", name, in, out)
			}
			again := newMessage(proto)
			if err := again.DecodeBody(out); err != nil {
				t.Fatalf("%s: re-encoded body rejected: %v", name, err)
			}
			if !sameValue(reflect.ValueOf(m).Elem(), reflect.ValueOf(again).Elem()) {
				t.Fatalf("%s: decode/encode/decode changed the value", name)
			}
		}
	})
}

// TestDecodedSlicesOutliveBuffers: the transport reuses its body
// buffers, so a reply's slices must stay intact across later calls on
// the same connection, and a stored put payload must not alias the
// server's request buffer.
func TestDecodedSlicesOutliveBuffers(t *testing.T) {
	_, c := startNode(t, Config{ID: 1, MicroClusters: 4, Dims: 2})
	a, b := bytes.Repeat([]byte("a"), 64), bytes.Repeat([]byte("b"), 64)
	if err := c.Put("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", b, 1); err != nil {
		t.Fatal(err)
	}
	first, _, err := c.Get(1, nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.Get(1, nil, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Data, a) || !bytes.Equal(second.Data, b) {
		t.Fatalf("replies changed under later calls: %q, %q", first.Data, second.Data)
	}
}
