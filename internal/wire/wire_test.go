package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestRequestRoundTrip: every request is one 35-byte TypeRequest frame
// (4-byte length, version, type, 29-byte body), whatever its deadline.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{},
		{ID: 1, Key: 42, Op: 0, Arg: 7},
		{ID: math.MaxUint64, Key: math.MaxUint64, Op: 255, Arg: math.MaxUint32},
	}
	var buf bytes.Buffer
	for _, req := range reqs {
		b := AppendRequest(nil, req)
		if len(b) != 4+2+29 || b[4] != Version || b[5] != TypeRequest {
			t.Fatalf("%+v: %d bytes, version %d, type %d; want 35 bytes, version %d, type %d",
				req, len(b), b[4], b[5], Version, TypeRequest)
		}
		buf.Write(b)
	}
	for i, want := range reqs {
		f, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != TypeRequest || f.Req != want {
			t.Fatalf("frame %d: type %d, got %+v, want %+v", i, f.Type, f.Req, want)
		}
	}
	if _, err := ReadFrame(&buf, nil); err != io.EOF {
		t.Fatalf("after stream end: %v, want io.EOF", err)
	}
}

// TestDeadlineRequestRoundTrip: a deadline rides in the same 35-byte
// TypeRequest frame as a deadline-less request, at both ends of its range,
// and a zero deadline comes back as zero.
func TestDeadlineRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Key: 42, Op: 2, Arg: 7, DeadlineNS: 1},
		{ID: 2, Key: 9, DeadlineNS: math.MaxUint64},
		{ID: 3, Key: 4, Op: 1, Arg: 2},
	}
	var buf bytes.Buffer
	for _, req := range reqs {
		b := AppendRequest(nil, req)
		if len(b) != 4+2+29 || b[5] != TypeRequest {
			t.Fatalf("%+v: %d bytes, type %d; want 35 bytes, type %d", req, len(b), b[5], TypeRequest)
		}
		buf.Write(b)
	}
	for i, want := range reqs {
		f, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != TypeRequest || f.Req != want {
			t.Fatalf("frame %d: type %d, got %+v, want %+v", i, f.Type, f.Req, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Status: StatusOK, Value: nil},
		{ID: 2, Status: StatusOK, Value: true, WaitNS: 123, ExecNS: 456},
		{ID: 3, Status: StatusOK, Value: false},
		{ID: 4, Status: StatusOK, Value: uint64(1 << 60)},
		{ID: 5, Status: StatusOK, Value: int64(-17)},
		{ID: 6, Status: StatusOK, Value: 3.5},
		{ID: 7, Status: StatusError, Value: nil, Msg: "hard failure"},
		{ID: 8, Status: StatusBusy},
		{ID: 9, Status: StatusOK, Value: []byte("hello")},
	}
	var buf bytes.Buffer
	for _, resp := range resps {
		b, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode %d: %v", resp.ID, err)
		}
		buf.Write(b)
	}
	scratch := make([]byte, 0, 128)
	for i, want := range resps {
		f, err := ReadFrame(&buf, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != TypeResponse {
			t.Fatalf("frame %d: type %d", i, f.Type)
		}
		got := f.Resp
		if got.ID != want.ID || got.Status != want.Status || got.Msg != want.Msg ||
			got.WaitNS != want.WaitNS || got.ExecNS != want.ExecNS {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Value, want.Value) {
			t.Fatalf("frame %d: value %#v, want %#v", i, got.Value, want.Value)
		}
	}
}

func TestStringValueArrivesAsBytes(t *testing.T) {
	b, err := AppendResponse(nil, Response{ID: 1, Value: "text"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f.Resp.Value.([]byte); !ok || string(got) != "text" {
		t.Fatalf("value = %#v, want []byte(\"text\")", f.Resp.Value)
	}
}

func TestEncodeRejectsBadValue(t *testing.T) {
	if _, err := AppendResponse(nil, Response{Value: struct{ X int }{1}}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("struct value: %v, want ErrBadValue", err)
	}
	if _, err := AppendResponse(nil, Response{Value: make([]byte, MaxFrame)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized value: %v, want ErrFrameTooLarge", err)
	}
}

func TestOversizedMessageTruncated(t *testing.T) {
	b, err := AppendResponse(nil, Response{ID: 1, Status: StatusError, Msg: strings.Repeat("x", 1<<17)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > MaxFrame+4 {
		t.Fatalf("frame %d bytes exceeds MaxFrame", len(b))
	}
	if got := f.Resp.Msg; len(got) == 0 || len(got) >= 1<<17 || !strings.HasPrefix(strings.Repeat("x", 1<<17), got) {
		t.Fatalf("message not a truncated prefix: len=%d", len(got))
	}
}

func TestReadFrameRejectsOversizedClaim(t *testing.T) {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, MaxFrame+1)
	b = append(b, make([]byte, 64)...)
	if _, err := ReadFrame(bytes.NewReader(b), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// An undersized claim (shorter than the version+type header) is equally
	// invalid.
	b = binary.BigEndian.AppendUint32(nil, 1)
	b = append(b, 0)
	if _, err := ReadFrame(bytes.NewReader(b), nil); !errors.Is(err, ErrFrameTooSmall) {
		t.Fatalf("got %v, want ErrFrameTooSmall", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	full := AppendRequest(nil, Request{ID: 9, Key: 3, Op: 1, Arg: 2})
	// Every strict prefix must fail with ErrTruncated (or io.EOF at zero
	// bytes), never hang or panic.
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]), nil)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(full))
		}
		if cut >= 4 && !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d: %v, want ErrTruncated", cut, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	req := AppendRequest(nil, Request{ID: 1})[4:] // strip length prefix
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrFrameTooSmall},
		{"one byte", []byte{Version}, ErrFrameTooSmall},
		{"bad version", append([]byte{Version + 1}, req[1:]...), ErrBadVersion},
		{"version 1", append([]byte{1}, req[1:]...), ErrBadVersion},
		{"bad type", []byte{Version, 99, 0}, ErrBadType},
		// 5 and 6 are not frame types (version 1 used them for deadline frames).
		{"type 5", append([]byte{Version, 5}, req[2:]...), ErrBadType},
		{"type 6", append([]byte{Version, 6, 0, 1}, req[2:]...), ErrBadType},
		{"short request", req[:len(req)-1], ErrBadBody},
		{"long request", append(append([]byte{}, req...), 0), ErrBadBody},
		{"short response", []byte{Version, TypeResponse, 1, 2, 3}, ErrBadBody},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeResponseBodyRejects(t *testing.T) {
	// A well-formed response, then surgical corruption of the value/message
	// region (everything after the fixed fields).
	full, err := AppendResponse(nil, Response{ID: 1, Status: StatusOK, Value: []byte("abcd"), Msg: "m"})
	if err != nil {
		t.Fatal(err)
	}
	payload := full[4:]
	const fixedEnd = 2 + 8 + 1 + 8 + 8 // header + id + status + wait + exec
	// Truncate inside the value.
	if _, err := DecodeFrame(payload[:fixedEnd+2]); !errors.Is(err, ErrBadBody) {
		t.Errorf("truncated value: %v, want ErrBadBody", err)
	}
	// Unknown value tag.
	corrupt := append([]byte{}, payload...)
	corrupt[fixedEnd] = 200
	if _, err := DecodeFrame(corrupt); !errors.Is(err, ErrBadBody) {
		t.Errorf("bad value tag: %v, want ErrBadBody", err)
	}
	// Message length pointing past the frame end.
	corrupt = append([]byte{}, payload...)
	corrupt[len(corrupt)-3] = 0xff // message length high byte
	if _, err := DecodeFrame(corrupt); !errors.Is(err, ErrBadBody) {
		t.Errorf("overlong message claim: %v, want ErrBadBody", err)
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	reqs := make([]Request, 37)
	for i := range reqs {
		reqs[i] = Request{ID: uint64(i + 1), Key: uint64(i * 31), Op: uint8(i % 4), Arg: uint32(i * 7), DeadlineNS: uint64(i % 3)}
	}
	b, err := AppendBatchRequest(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != TypeBatchRequest || !reflect.DeepEqual(frame.Reqs, reqs) {
		t.Fatalf("round trip mismatch: type %d, %d requests", frame.Type, len(frame.Reqs))
	}
	if _, err := AppendBatchRequest(nil, nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := AppendBatchRequest(nil, make([]Request, MaxBatch+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized batch: %v, want ErrFrameTooLarge", err)
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Status: StatusOK, Value: true, WaitNS: 10, ExecNS: 20},
		{ID: 2, Status: StatusError, Value: nil, Msg: "boom"},
		{ID: 3, Status: StatusOK, Value: uint64(99)},
		{ID: 4, Status: StatusOK, Value: []byte("bytes")},
	}
	b, consumed, err := AppendBatchResponses(nil, resps)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(resps) {
		t.Fatalf("consumed %d of %d", consumed, len(resps))
	}
	frame, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != TypeBatchResponse || !reflect.DeepEqual(frame.Resps, resps) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", frame.Resps, resps)
	}
}

// TestBatchResponseSplitsAtFrameBound pins the greedy packing: when the
// batch overflows MaxFrame, AppendBatchResponses consumes a prefix and the
// caller loops — and the two frames decode back to the full set.
func TestBatchResponseSplitsAtFrameBound(t *testing.T) {
	big := make([]byte, 20*1024)
	resps := make([]Response, 5)
	for i := range resps {
		resps[i] = Response{ID: uint64(i), Status: StatusOK, Value: big}
	}
	var frames [][]byte
	rest := resps
	for len(rest) > 0 {
		b, n, err := AppendBatchResponses(nil, rest)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("no progress")
		}
		frames = append(frames, b)
		rest = rest[n:]
	}
	if len(frames) < 2 {
		t.Fatalf("expected a split, got %d frame(s)", len(frames))
	}
	var got []Response
	for _, fb := range frames {
		frame, err := ReadFrame(bytes.NewReader(fb), nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, frame.Resps...)
	}
	if !reflect.DeepEqual(got, resps) {
		t.Fatal("split batch did not reassemble")
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	good, err := AppendBatchRequest(nil, []Request{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte{}, good[4:]...)
	// Count says two, body holds one.
	payload[3] = 2
	if _, err := DecodeFrame(payload); !errors.Is(err, ErrBadBody) {
		t.Errorf("count mismatch: %v, want ErrBadBody", err)
	}
	// Zero-count batches are invalid.
	if _, err := DecodeFrame([]byte{Version, TypeBatchRequest, 0, 0}); !errors.Is(err, ErrBadBody) {
		t.Errorf("zero count: %v, want ErrBadBody", err)
	}
	// A hostile response count cannot force a large allocation: the body
	// cannot hold the claimed entries.
	hostile := []byte{Version, TypeBatchResponse, 0xff, 0xff}
	if _, err := DecodeFrame(hostile); !errors.Is(err, ErrBadBody) {
		t.Errorf("hostile count: %v, want ErrBadBody", err)
	}
}

func TestCheckValue(t *testing.T) {
	for _, v := range []any{nil, true, uint64(1), int64(-1), 1, uint32(2), 1.5, "s", []byte("b")} {
		if err := CheckValue(v); err != nil {
			t.Errorf("CheckValue(%T) = %v", v, err)
		}
	}
	if err := CheckValue(struct{}{}); !errors.Is(err, ErrBadValue) {
		t.Errorf("struct: %v, want ErrBadValue", err)
	}
	if err := CheckValue(make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized bytes: %v, want ErrFrameTooLarge", err)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendRequest(nil, Request{ID: 1, Key: 2, Op: 3, Arg: 4})[4:])
	f.Add(AppendRequest(nil, Request{ID: 1, Key: 2, Op: 3, Arg: 4, DeadlineNS: 5_000_000})[4:])
	if b, err := AppendResponse(nil, Response{ID: 5, Status: StatusOK, Value: true, Msg: ""}); err == nil {
		f.Add(b[4:])
	}
	if b, err := AppendResponse(nil, Response{ID: 6, Status: StatusError, Value: []byte("v"), Msg: "boom"}); err == nil {
		f.Add(b[4:])
	}
	if b, err := AppendBatchRequest(nil, []Request{{ID: 1}, {ID: 2, Key: 3, Op: 1, Arg: 4, DeadlineNS: 1}}); err == nil {
		f.Add(b[4:])
	}
	if b, _, err := AppendBatchResponses(nil, []Response{{ID: 7, Status: StatusOK, Value: 1.5}, {ID: 8, Status: StatusBusy, Msg: "busy"}}); err == nil {
		f.Add(b[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{Version, TypeResponse})
	f.Add([]byte{Version, TypeBatchRequest, 0, 1})
	// A version-1 request: 21-byte body, no deadline.
	f.Add(append([]byte{1, TypeRequest}, make([]byte, 21)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, err := DecodeFrame(b)
		if err != nil {
			return
		}
		// The encoding is canonical: whatever decodes re-encodes to the
		// same bytes. (Comparing bytes, not decoded values, keeps a NaN
		// float value from failing a faithful round trip.)
		var enc []byte
		switch frame.Type {
		case TypeRequest:
			enc = AppendRequest(nil, frame.Req)
		case TypeResponse:
			enc, err = AppendResponse(nil, frame.Resp)
		case TypeBatchRequest:
			enc, err = AppendBatchRequest(nil, frame.Reqs)
		case TypeBatchResponse:
			var n int
			// A decoded batch always fits one frame by construction.
			if enc, n, err = AppendBatchResponses(nil, frame.Resps); err == nil && n != len(frame.Resps) {
				t.Fatalf("decoded batch re-encodes %d of %d responses", n, len(frame.Resps))
			}
		default:
			t.Fatalf("decoded an unknown frame type %d", frame.Type)
		}
		if err != nil {
			t.Fatalf("decoded type-%d frame does not re-encode: %v", frame.Type, err)
		}
		if !bytes.Equal(enc[4:], b) {
			t.Fatalf("type-%d frame re-encodes to different bytes:\n got %x\nwant %x", frame.Type, enc[4:], b)
		}
	})
}

// onceReader returns its data in one Read and fails the test on any later
// Read: a FrameBuffered that reads past what is buffered would block on a
// socket.
type onceReader struct {
	t    *testing.T
	data []byte
}

func (r *onceReader) Read(p []byte) (int, error) {
	if r.data == nil {
		r.t.Error("read past the buffered bytes")
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = nil
	return n, nil
}

// TestFrameBuffered: a whole frame is reported buffered, and the frame after
// it only once every one of its bytes is.
func TestFrameBuffered(t *testing.T) {
	frame := AppendRequest(nil, Request{ID: 1, Key: 2, Op: 3, Arg: 4})
	for cut := 0; cut <= len(frame); cut++ {
		data := append(append([]byte(nil), frame...), frame[:cut]...)
		br := bufio.NewReader(&onceReader{t: t, data: data})
		br.Peek(1) // fill the buffer with everything sent
		if !FrameBuffered(br) {
			t.Fatalf("cut %d: the first, whole frame not reported buffered", cut)
		}
		if _, err := ReadFrame(br, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := FrameBuffered(br), cut == len(frame); got != want {
			t.Fatalf("%d of %d bytes of the next frame buffered: FrameBuffered = %v, want %v", cut, len(frame), got, want)
		}
	}
}
