// Package wire is the kstmd network protocol: a compact binary framing for
// submitting executor tasks over a byte stream and reading their results
// back, designed for pipelining (requests carry ids; responses may arrive
// out of order) and for hostile input (the decoder bounds every length it
// reads before allocating).
//
// Frame layout (all integers big-endian):
//
//	+--------+---------+--------+----------------------+
//	| len u32| ver  u8 | typ u8 | body (len-2 bytes)   |
//	+--------+---------+--------+----------------------+
//
// len counts the bytes after the length field (version, type and body) and
// is bounded by MaxFrame. Version is Version (2); a decoder rejects frames
// from any other version, so a version-1 peer fails with ErrBadVersion
// rather than a misparse.
//
// A client sends TypeRequest frames and a server answers with TypeResponse
// frames; the serving stack speaks no other type.
//
// Request body (TypeRequest), 29 bytes:
//
//	id u64 | key u64 | op u8 | arg u32 | deadline u64 (relative ns, 0 = none)
//
// The deadline is RELATIVE (nanoseconds from the moment the server decodes
// the frame), so client and server clocks never need to agree; the server
// sheds tasks still queued past it with StatusDeadline (DESIGN.md §10.1).
//
// Response body (TypeResponse):
//
//	id u64 | status u8 | wait u64 (ns) | exec u64 (ns) | value | msg
//
// where value is a tagged scalar (TagNil/TagFalse/TagTrue/TagUint/TagInt/
// TagFloat/TagBytes) and msg is a u16-length-prefixed UTF-8 error message,
// empty for StatusOK.
//
// Batch frames (TypeBatchRequest, TypeBatchResponse: count u16 | count ×
// body) are probe-only: the repo benchmark's wire probe times their codec,
// and neither server nor client sends or accepts them.
// See DESIGN.md "Network front-end" for the status ↔ executor error mapping.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version this package speaks. Version 2 made the
// deadline part of every request body.
const Version = 2

// MaxFrame bounds the length field: no legal frame is larger, and a decoder
// must reject bigger claims before allocating. Responses carry at most a
// small scalar and a short message; 64 KiB leaves generous headroom.
const MaxFrame = 64 * 1024

// Frame types. TypeRequest and TypeResponse are the protocol; the batch
// types are probe-only (package comment).
const (
	TypeRequest  uint8 = 1
	TypeResponse uint8 = 2
	// TypeBatchRequest is probe-only: a u16 count followed by count request
	// bodies back to back.
	TypeBatchRequest uint8 = 3
	// TypeBatchResponse is probe-only: a u16 count followed by count
	// response bodies back to back.
	TypeBatchResponse uint8 = 4
)

// MaxBatch is the most requests one TypeBatchRequest frame can carry.
// Probe-only, like the frame.
const MaxBatch = (MaxFrame - headerSize - 2) / requestSize

// Status codes carried in responses.
const (
	// StatusOK: the task executed; Value holds its result.
	StatusOK uint8 = 0
	// StatusBusy: the executor shed the task (reject-mode backpressure,
	// core.ErrQueueFull). The client may retry.
	StatusBusy uint8 = 1
	// StatusCancelled: the task was abandoned before execution because its
	// connection's context was cancelled (counted under ExecStats.Cancelled).
	StatusCancelled uint8 = 2
	// StatusStopped: the server is draining or stopped and no longer
	// accepts or executes work (core.ErrNotRunning / core.ErrStopped).
	StatusStopped uint8 = 3
	// StatusBadRequest: the frame decoded but the request is malformed
	// (e.g. an opcode the server's workload rejects).
	StatusBadRequest uint8 = 4
	// StatusError: the workload returned a hard error; Msg carries it.
	StatusError uint8 = 5
	// StatusDeadline: the request's relative deadline expired while the task
	// was still queued, so the server shed it without executing (counted
	// under ExecStats.DeadlineExpired). Retrying is pointless unless the
	// client also raises the deadline.
	StatusDeadline uint8 = 6
)

// StatusName returns a human-readable status label.
func StatusName(s uint8) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusCancelled:
		return "cancelled"
	case StatusStopped:
		return "stopped"
	case StatusBadRequest:
		return "bad-request"
	case StatusError:
		return "error"
	case StatusDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// Value tags.
const (
	TagNil   uint8 = 0
	TagFalse uint8 = 1
	TagTrue  uint8 = 2
	TagUint  uint8 = 3 // u64
	TagInt   uint8 = 4 // i64 (two's complement u64)
	TagFloat uint8 = 5 // IEEE-754 bits as u64
	TagBytes uint8 = 6 // u16 length + bytes (strings travel as bytes)
)

// Decoder errors. ErrTruncated wraps io errors from short reads so callers
// can distinguish "peer hung up mid-frame" from protocol violations.
var (
	ErrFrameTooLarge = errors.New("wire: frame length exceeds MaxFrame")
	ErrFrameTooSmall = errors.New("wire: frame shorter than header")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrBadType       = errors.New("wire: unknown frame type")
	ErrBadBody       = errors.New("wire: malformed frame body")
	ErrBadValue      = errors.New("wire: unencodable task value")
	ErrTruncated     = errors.New("wire: truncated frame")
)

// Request is one task submission. ID is chosen by the client and echoed in
// the matching Response; the server treats it as opaque.
type Request struct {
	ID  uint64
	Key uint64
	Op  uint8
	Arg uint32
	// DeadlineNS is the task's relative deadline in nanoseconds from server
	// receipt; zero means none.
	DeadlineNS uint64
}

// Response is one task outcome.
type Response struct {
	ID     uint64
	Status uint8
	// WaitNS/ExecNS are the executor's queue-wait and service time for the
	// task in nanoseconds (zero when the task never executed).
	WaitNS uint64
	ExecNS uint64
	// Value is the workload's task value: nil, bool, uint64, int64,
	// float64 or []byte (strings arrive as []byte).
	Value any
	// Msg is the error message for non-OK statuses.
	Msg string
}

// Body sizes.
const (
	headerSize  = 2                 // version + type, after the length field
	requestSize = 8 + 8 + 1 + 4 + 8 // id + key + op + arg + deadline
	respFixed   = 8 + 1 + 8 + 8     // id + status + wait + exec
	maxMsgLen   = math.MaxUint16    // msg length field is u16
	maxValueLen = MaxFrame - 1024   // sanity bound for TagBytes payloads
)

// AppendRequest appends req as one TypeRequest frame to dst and returns the
// extended slice; it never fails.
//
//kstmvet:hotpath
func AppendRequest(dst []byte, req Request) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerSize+requestSize))
	dst = append(dst, Version, TypeRequest)
	return appendRequestBody(dst, req)
}

// AppendBatchRequest appends reqs as one TypeBatchRequest frame to dst.
// Probe-only. It fails only on an empty batch or one above MaxBatch.
//
//kstmvet:hotpath
func AppendBatchRequest(dst []byte, reqs []Request) ([]byte, error) {
	if len(reqs) == 0 {
		return dst, fmt.Errorf("%w: empty batch", ErrBadBody)
	}
	if len(reqs) > MaxBatch {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerSize+2+len(reqs)*requestSize))
	dst = append(dst, Version, TypeBatchRequest)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(reqs)))
	for _, req := range reqs {
		dst = appendRequestBody(dst, req)
	}
	return dst, nil
}

// appendRequestBody appends one request body (no frame header) to dst.
//
//kstmvet:hotpath
func appendRequestBody(dst []byte, req Request) []byte {
	dst = binary.BigEndian.AppendUint64(dst, req.ID)
	dst = binary.BigEndian.AppendUint64(dst, req.Key)
	dst = append(dst, req.Op)
	dst = binary.BigEndian.AppendUint32(dst, req.Arg)
	return binary.BigEndian.AppendUint64(dst, req.DeadlineNS)
}

// decodeRequestBody decodes one request body; b holds at least requestSize
// bytes.
func decodeRequestBody(b []byte) Request {
	return Request{
		ID:         binary.BigEndian.Uint64(b[0:8]),
		Key:        binary.BigEndian.Uint64(b[8:16]),
		Op:         b[16],
		Arg:        binary.BigEndian.Uint32(b[17:21]),
		DeadlineNS: binary.BigEndian.Uint64(b[21:29]),
	}
}

// AppendBatchResponses appends as many of resps as fit one TypeBatchResponse
// frame (greedy, in order, at least one) and returns the extended slice and
// the count consumed; callers loop until the batch is drained. Probe-only. Values must
// already be wire-encodable (CheckValue) — an unencodable value aborts the
// frame with ErrBadValue and consumed 0.
//
//kstmvet:hotpath
func AppendBatchResponses(dst []byte, resps []Response) (out []byte, consumed int, err error) {
	if len(resps) == 0 {
		return dst, 0, fmt.Errorf("%w: empty batch", ErrBadBody)
	}
	frameStart := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // length patched below
	dst = append(dst, Version, TypeBatchResponse)
	dst = binary.BigEndian.AppendUint16(dst, 0) // count patched below
	for _, resp := range resps {
		mark := len(dst)
		var aerr error
		dst, aerr = appendResponseBody(dst, resp)
		if aerr != nil {
			if consumed == 0 {
				return dst[:frameStart], 0, aerr
			}
			dst = dst[:mark]
			break
		}
		if len(dst)-frameStart-4 > MaxFrame {
			// This response overflows the frame: roll it back. consumed==0
			// means the single response alone is too large — the caller
			// should fall back to AppendResponse, which truncates.
			dst = dst[:mark]
			if consumed == 0 {
				return dst[:frameStart], 0, ErrFrameTooLarge
			}
			break
		}
		consumed++
	}
	binary.BigEndian.PutUint32(dst[frameStart:], uint32(len(dst)-frameStart-4))
	binary.BigEndian.PutUint16(dst[frameStart+6:], uint16(consumed))
	return dst, consumed, nil
}

// appendResponseBody appends one response body (no frame header) to dst,
// rolling back on an unencodable value. Messages truncate to the u16 bound.
//
//kstmvet:hotpath
func appendResponseBody(dst []byte, resp Response) ([]byte, error) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, resp.Status)
	dst = binary.BigEndian.AppendUint64(dst, resp.WaitNS)
	dst = binary.BigEndian.AppendUint64(dst, resp.ExecNS)
	var err error
	dst, err = appendValue(dst, resp.Value)
	if err != nil {
		return dst[:start], err
	}
	msg := resp.Msg
	if len(msg) > maxMsgLen {
		msg = msg[:maxMsgLen]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...), nil
}

// CheckValue reports whether v is in the wire's tagged-scalar vocabulary
// (and, for byte/string payloads, within the size bound) — the pre-flight a
// server runs before encoding a response, so encoding cannot fail mid-burst.
func CheckValue(v any) error {
	switch x := v.(type) {
	case nil, bool, uint64, uint32, int64, int, float64:
		return nil
	case string:
		if len(x) > maxValueLen || len(x) > maxMsgLen {
			return ErrFrameTooLarge
		}
		return nil
	case []byte:
		if len(x) > maxValueLen || len(x) > maxMsgLen {
			return ErrFrameTooLarge
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrBadValue, v)
	}
}

// AppendResponse appends resp as one frame to dst. It fails only on a value
// outside the tagged-scalar vocabulary or an oversized payload; messages are
// truncated to the u16 bound rather than rejected. The value is encoded
// straight into dst and the frame length patched once its size is known, so
// a response costs no allocation beyond dst's own growth.
//
//kstmvet:hotpath
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // length patched below
	dst = append(dst, Version, TypeResponse)
	dst = binary.BigEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, resp.Status)
	dst = binary.BigEndian.AppendUint64(dst, resp.WaitNS)
	dst = binary.BigEndian.AppendUint64(dst, resp.ExecNS)
	valStart := len(dst)
	dst, err := appendValue(dst, resp.Value)
	if err != nil {
		return dst[:start], err
	}
	valLen := len(dst) - valStart
	msg := resp.Msg
	if limit := min(maxMsgLen, MaxFrame-headerSize-respFixed-valLen-2); len(msg) > limit {
		msg = msg[:limit]
	}
	bodyLen := headerSize + respFixed + valLen + 2 + len(msg)
	if bodyLen > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(bodyLen))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...), nil
}

// appendValue encodes a task value as a tagged scalar.
//
//kstmvet:hotpath
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, TagNil), nil
	case bool:
		if x {
			return append(dst, TagTrue), nil
		}
		return append(dst, TagFalse), nil
	case uint64:
		return binary.BigEndian.AppendUint64(append(dst, TagUint), x), nil
	case uint32:
		return binary.BigEndian.AppendUint64(append(dst, TagUint), uint64(x)), nil
	case int64:
		return binary.BigEndian.AppendUint64(append(dst, TagInt), uint64(x)), nil
	case int:
		return binary.BigEndian.AppendUint64(append(dst, TagInt), uint64(x)), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, TagFloat), math.Float64bits(x)), nil
	case string:
		return appendBytesValue(dst, []byte(x))
	case []byte:
		return appendBytesValue(dst, x)
	default:
		return dst, fmt.Errorf("%w: %T", ErrBadValue, v)
	}
}

//kstmvet:hotpath
func appendBytesValue(dst, b []byte) ([]byte, error) {
	if len(b) > maxValueLen || len(b) > maxMsgLen {
		return dst, ErrFrameTooLarge
	}
	dst = append(dst, TagBytes)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...), nil
}

// decodeValue reads one tagged scalar from b, returning the value and the
// remainder.
func decodeValue(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrBadBody
	}
	tag, b := b[0], b[1:]
	switch tag {
	case TagNil:
		return nil, b, nil
	case TagFalse:
		return false, b, nil
	case TagTrue:
		return true, b, nil
	case TagUint, TagInt, TagFloat:
		if len(b) < 8 {
			return nil, nil, ErrBadBody
		}
		u := binary.BigEndian.Uint64(b)
		b = b[8:]
		switch tag {
		case TagUint:
			return u, b, nil
		case TagInt:
			return int64(u), b, nil
		default:
			return math.Float64frombits(u), b, nil
		}
	case TagBytes:
		if len(b) < 2 {
			return nil, nil, ErrBadBody
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return nil, nil, ErrBadBody
		}
		out := make([]byte, n)
		copy(out, b[:n])
		return out, b[n:], nil
	default:
		return nil, nil, fmt.Errorf("%w: value tag %d", ErrBadBody, tag)
	}
}

// Frame is one decoded frame, selected by Type: Req for TypeRequest, Resp
// for TypeResponse; the probe-only Reqs and Resps for TypeBatchRequest and
// TypeBatchResponse.
type Frame struct {
	Type  uint8
	Req   Request
	Resp  Response
	Reqs  []Request
	Resps []Response
}

// ReadFrame reads and decodes one frame from r. A short read surfaces as
// ErrTruncated (wrapping the io error); a clean EOF on the first length byte
// returns io.EOF unwrapped, so stream consumers can end loops normally.
//
// scratch, when non-nil, is the caller's reusable read buffer: ReadFrame
// grows it as needed and writes the growth back, so a long-lived read loop
// stops allocating once it has seen its largest frame. Pass nil for one-off
// reads.
//
//kstmvet:hotpath
func ReadFrame(r io.Reader, scratch *[]byte) (Frame, error) {
	// The length prefix is read through the scratch buffer too — a local
	// [4]byte array would escape into io.ReadFull's interface call and cost
	// one heap allocation per frame.
	var buf []byte
	if scratch != nil {
		buf = *scratch
	}
	if cap(buf) < 4 {
		buf = make([]byte, 4) //kstmvet:ignore grow-once: the scratch pointer retains the buffer across frames
		if scratch != nil {
			*scratch = buf
		}
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	if n < headerSize {
		return Frame{}, ErrFrameTooSmall
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n) //kstmvet:ignore grow-once: the scratch pointer retains the buffer at the high-water mark
		if scratch != nil {
			*scratch = buf
		}
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return DecodeFrame(buf)
}

// FrameBuffered reports whether br already holds a whole frame — its length
// field and the len bytes after it — so the next ReadFrame from br cannot
// block. Buffered is checked first: Peek would block on br's source when
// fewer than four bytes are buffered.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	p, _ := br.Peek(4)
	return uint64(n) >= 4+uint64(binary.BigEndian.Uint32(p))
}

// DecodeFrame decodes one frame payload (the bytes after the length field).
// It is the fuzz entry point: any input must return a Frame or an error,
// never panic, and never retain b.
//
//kstmvet:hotpath
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) < headerSize {
		return Frame{}, ErrFrameTooSmall
	}
	if len(b) > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	if b[0] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	typ, body := b[1], b[2:]
	switch typ {
	case TypeRequest:
		if len(body) != requestSize {
			return Frame{}, fmt.Errorf("%w: request body %d bytes, want %d", ErrBadBody, len(body), requestSize)
		}
		return Frame{Type: TypeRequest, Req: decodeRequestBody(body)}, nil
	case TypeResponse:
		resp, rest, err := decodeResponseBody(body) //kstmvet:ignore decoded values and messages are fresh by contract: DecodeFrame never retains b
		if err != nil {
			return Frame{}, err
		}
		if len(rest) != 0 {
			return Frame{}, fmt.Errorf("%w: %d trailing bytes after response", ErrBadBody, len(rest))
		}
		return Frame{Type: TypeResponse, Resp: resp}, nil
	case TypeBatchRequest:
		if len(body) < 2 {
			return Frame{}, fmt.Errorf("%w: missing batch count", ErrBadBody)
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if n == 0 {
			return Frame{}, fmt.Errorf("%w: empty batch", ErrBadBody)
		}
		// The size check precedes the allocation: a hostile count cannot
		// reserve more than the (already MaxFrame-bounded) body justifies.
		if len(body) != n*requestSize {
			return Frame{}, fmt.Errorf("%w: batch body %d bytes, %d requests want %d", ErrBadBody, len(body), n, n*requestSize)
		}
		reqs := make([]Request, n) //kstmvet:ignore the decoded batch is the caller's result; one slice per frame, bounded by MaxFrame
		for i := range reqs {
			reqs[i] = decodeRequestBody(body[i*requestSize:])
		}
		return Frame{Type: TypeBatchRequest, Reqs: reqs}, nil
	case TypeBatchResponse:
		if len(body) < 2 {
			return Frame{}, fmt.Errorf("%w: missing batch count", ErrBadBody)
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if n == 0 {
			return Frame{}, fmt.Errorf("%w: empty batch", ErrBadBody)
		}
		// Each response body is at least respFixed+1+2 bytes; bound the
		// allocation by what the body could actually hold.
		if n*(respFixed+3) > len(body) {
			return Frame{}, fmt.Errorf("%w: %d responses cannot fit %d bytes", ErrBadBody, n, len(body))
		}
		resps := make([]Response, 0, n) //kstmvet:ignore the decoded batch is the caller's result; one slice per frame, bounded by MaxFrame
		for i := 0; i < n; i++ {
			resp, rest, err := decodeResponseBody(body) //kstmvet:ignore decoded values and messages are fresh by contract: DecodeFrame never retains b
			if err != nil {
				return Frame{}, err
			}
			resps = append(resps, resp)
			body = rest
		}
		if len(body) != 0 {
			return Frame{}, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadBody, len(body))
		}
		return Frame{Type: TypeBatchResponse, Resps: resps}, nil
	default:
		return Frame{}, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
}

// decodeResponseBody decodes one response body from b, returning the
// remainder (batch frames concatenate several).
func decodeResponseBody(b []byte) (Response, []byte, error) {
	if len(b) < respFixed {
		return Response{}, nil, fmt.Errorf("%w: response body %d bytes, want >= %d", ErrBadBody, len(b), respFixed)
	}
	resp := Response{
		ID:     binary.BigEndian.Uint64(b[0:8]),
		Status: b[8],
		WaitNS: binary.BigEndian.Uint64(b[9:17]),
		ExecNS: binary.BigEndian.Uint64(b[17:25]),
	}
	val, rest, err := decodeValue(b[respFixed:])
	if err != nil {
		return Response{}, nil, err
	}
	resp.Value = val
	if len(rest) < 2 {
		return Response{}, nil, fmt.Errorf("%w: missing message length", ErrBadBody)
	}
	msgLen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < msgLen {
		return Response{}, nil, fmt.Errorf("%w: message %d bytes, length says %d", ErrBadBody, len(rest), msgLen)
	}
	resp.Msg = string(rest[:msgLen])
	return resp, rest[msgLen:], nil
}
