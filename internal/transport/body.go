package transport

import (
	"bytes"
	"encoding/gob"
)

// BodyAppender is the encode half of Body. Message values implement it
// with a value receiver, so callers may pass either a value or a
// pointer as a request.
type BodyAppender interface {
	// AppendBody appends the message's binary body to dst and returns
	// the extended slice.
	AppendBody(dst []byte) []byte
}

// Body is a message with a hand-rolled binary body. Client, Server,
// Marshal and Unmarshal use it in place of gob whenever a value
// implements it; any other value keeps the nested gob body. The
// decode half must copy out every slice it keeps: the transport reuses
// its body buffers across calls.
type Body interface {
	BodyAppender
	// DecodeBody replaces the message with the body in b.
	DecodeBody(b []byte) error
}

// appendBody encodes v onto dst: nothing for nil, AppendBody for a
// BodyAppender, a gob stream otherwise.
func appendBody(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case nil:
		return dst, nil
	case BodyAppender:
		return m.AppendBody(dst), nil
	}
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeBody decodes b into v with DecodeBody when v is a Body, with a
// fresh gob decoder otherwise.
func decodeBody(b []byte, v any) error {
	if m, ok := v.(Body); ok {
		return m.DecodeBody(b)
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// rawBody adapts a Handler's raw reply to a BodyAppender, so both
// handler kinds share the server's per-connection reply buffer.
type rawBody []byte

func (r rawBody) AppendBody(dst []byte) []byte { return append(dst, r...) }
