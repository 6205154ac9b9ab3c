package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// tagged is a minimal Body: an 8-byte tag followed by the text.
type tagged struct {
	Tag  uint64
	Text string
}

func (m tagged) AppendBody(dst []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, m.Tag), m.Text...)
}

func (m *tagged) DecodeBody(b []byte) error {
	if len(b) < 8 {
		return errors.New("tagged: short body")
	}
	*m = tagged{Tag: binary.LittleEndian.Uint64(b), Text: string(b[8:])}
	return nil
}

func TestMarshalUsesBody(t *testing.T) {
	in := tagged{Tag: 7, Text: "seven"}
	for _, v := range []any{in, &in} {
		b, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := in.AppendBody(nil); !bytes.Equal(b, want) {
			t.Fatalf("Marshal(%T) = %x, want the body %x", v, b, want)
		}
		var out tagged
		if err := Unmarshal(b, &out); err != nil || out != in {
			t.Fatalf("Unmarshal = %+v, %v", out, err)
		}
	}
}

// TestBodyBuffersReusedSafely drives one client from several goroutines
// with replies that alternate between long and short, so a reused
// request or reply buffer that leaked into a decoded value, or a frame
// field left over from a previous call, would show as a wrong reply.
func TestBodyBuffersReusedSafely(t *testing.T) {
	srv := NewServer()
	if err := srv.HandleBody("upper", func(body []byte) (BodyAppender, error) {
		var req tagged
		if err := req.DecodeBody(body); err != nil {
			return nil, err
		}
		if req.Tag%7 == 0 {
			return nil, fmt.Errorf("tag %d refused", req.Tag)
		}
		return tagged{Tag: req.Tag + 1, Text: strings.ToUpper(req.Text)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tag := uint64(g*1000 + i)
				text := strings.Repeat(string(rune('a'+g)), 1+(i%2)*4096)
				var resp tagged
				_, err := c.Call("upper", tagged{Tag: tag, Text: text}, &resp)
				if tag%7 == 0 {
					var remote *RemoteError
					if !errors.As(err, &remote) {
						t.Errorf("tag %d: err = %v, want a remote error", tag, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("tag %d: %v", tag, err)
					return
				}
				if resp.Tag != tag+1 || resp.Text != strings.ToUpper(text) {
					t.Errorf("tag %d: reply tag %d, %d-byte text", tag, resp.Tag, len(resp.Text))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
