package main

import (
	"time"

	"kstm"
	"kstm/internal/wire"
)

// probeWire times internal/wire's encoders and its decoder on the frames
// this workload's requests and their answers travel in.
func probeWire(d time.Duration, inputs []kstm.Task, l *metricSet) {
	reqs := make([]wire.Request, len(inputs))
	resps := make([]wire.Response, len(inputs))
	for i, t := range inputs {
		reqs[i] = wire.Request{ID: uint64(i + 1), Key: t.Key, Op: uint8(t.Op), Arg: t.Arg}
		resps[i] = wire.Response{ID: uint64(i + 1), WaitNS: 1500, ExecNS: 400, Value: i%2 == 0}
	}
	n := len(inputs)
	buf := make([]byte, 0, 64*1024)

	l.set("wire.encode_req_ns_op", perOp(d, n, func() {
		for i := range reqs {
			buf = wire.AppendRequest(buf[:0], reqs[i])
		}
	}))
	reqFrame := append([]byte(nil), buf...)
	l.set("wire.req_bytes", float64(len(reqFrame)))
	l.set("wire.decode_req_ns_op", perOp(d, n, func() {
		for range reqs {
			f, _ := wire.DecodeFrame(reqFrame[4:]) // past the length prefix
			sink += f.Req.ID
		}
	}))

	l.set("wire.encode_resp_ns_op", perOp(d, n, func() {
		for i := range resps {
			buf, _ = wire.AppendResponse(buf[:0], resps[i])
		}
	}))
	respFrame := append([]byte(nil), buf...)
	l.set("wire.resp_bytes", float64(len(respFrame)))
	l.set("wire.decode_resp_ns_op", perOp(d, n, func() {
		for range resps {
			f, _ := wire.DecodeFrame(respFrame[4:])
			sink += f.Resp.ID
		}
	}))

	const batch = 64
	l.set("wire.batch64_encode_ns_op", perOp(d, n, func() {
		for lo := 0; lo+batch <= n; lo += batch {
			buf, _ = wire.AppendBatchRequest(buf[:0], reqs[lo:lo+batch])
		}
	}))
	batchFrame, _, _ := wire.AppendBatchResponses(nil, resps[:batch])
	l.set("wire.batch64_decode_ns_op", perOp(d, batch, func() {
		f, _ := wire.DecodeFrame(batchFrame[4:])
		sink += uint64(len(f.Resps))
	}))
}
