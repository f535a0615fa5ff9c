package transport

import (
	"context"
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// carrier is whatever takes one stamped request to a target and brings the
// response back: a Client over its own connection, or a RemoteTarget picking
// a pooled connection per request. rc only bounds the wait (nil waits for
// the response or the connection's end); a response payload aliases the
// returned pooled frame, which the caller owns and must releaseFrame.
type carrier interface {
	send(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf, error)
}

// ops is the typed operation set of the wire protocol, written once over a
// carrier. Client and RemoteTarget both embed it, so an operation has one
// body whichever of them it is called on.
type ops struct{ via carrier }

// exchange is the one client call under every typed op: refuse a request
// that is already dead, stamp the lifecycle wire fields, carry the frame.
// Every wire request carries a nonzero RequestID — the multiplexer matches
// responses by it — so a nil rc gets a fresh trace ID minted here.
//
// OpDelete and OpMarkClean are not cancellable, the contract target.Target
// states and *store.Store keeps: the caller has already acted on the delete
// or the flush, so abandoning the op would strand state. They carry the
// request's ID for attribution and nothing else — no precheck, no deadline
// for the target to enforce, and a wait that only the connection can end.
func (o ops) exchange(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf, error) {
	if req.RequestID = rc.ID(); req.RequestID == 0 {
		req.RequestID = reqctx.NextID()
	}
	if req.Op == OpDelete || req.Op == OpMarkClean {
		rc = nil
	} else if err := rc.Err(); err != nil {
		return Response{}, nil, err
	} else if d, ok := rc.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	resp, frame, err := o.via.send(rc, req)
	if err != nil {
		return Response{}, nil, fmt.Errorf("transport: %v: %w", req.Op, err)
	}
	return resp, frame, nil
}

// callFrame is exchange plus the sense mapping, for ops whose response
// carries a payload: on success the caller owns the frame the payload
// aliases; a non-OK sense comes back as the store's error with the frame
// already released.
func (o ops) callFrame(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf, error) {
	resp, frame, err := o.exchange(rc, req)
	if err == nil {
		err = senseError(resp)
	}
	if err != nil {
		releaseFrame(frame)
		resp.Payload = nil
		return resp, nil, err
	}
	return resp, frame, nil
}

// call is callFrame for ops that answer in the fixed response fields alone.
// Those fields are returned beside a sense error too (a refused put still
// reports what it cost).
func (o ops) call(rc *reqctx.Ctx, req Request) (Response, error) {
	resp, frame, err := o.callFrame(rc, req)
	releaseFrame(frame)
	resp.Payload = nil
	return resp, err
}

// payloadCall is callFrame for ops that answer with an encoded table: the
// payload is decoded while the frame is still leased.
func payloadCall[T any](o ops, op Op, decode func([]byte) (T, error)) (T, error) {
	resp, frame, err := o.callFrame(nil, Request{Op: op})
	if err != nil {
		var zero T
		return zero, err
	}
	defer releaseFrame(frame)
	return decode(resp.Payload)
}

// senseError converts a non-OK sense code back into the store's error
// vocabulary so initiator-side code can errors.Is on it. Sense codes
// without a mapped error keep the code in the error text.
func senseError(resp Response) error {
	switch resp.Sense {
	case osd.SenseOK:
		return nil
	case osd.SenseCorrupted:
		return fmt.Errorf("%w: %s", store.ErrCorrupted, resp.Message)
	case osd.SenseCacheFull:
		return fmt.Errorf("%w: %s", store.ErrCacheFull, resp.Message)
	case osd.SenseRedundancyFull:
		return fmt.Errorf("%w: %s", store.ErrRedundancyFull, resp.Message)
	case osd.SenseNotFound:
		return fmt.Errorf("%w: %s", store.ErrNotFound, resp.Message)
	case osd.SenseCancelled:
		return fmt.Errorf("%w: %s", context.Canceled, resp.Message)
	case osd.SenseDeadline:
		return fmt.Errorf("%w: %s", context.DeadlineExceeded, resp.Message)
	default:
		if resp.Message == "" {
			return fmt.Errorf("transport: target sense %#x", int(resp.Sense))
		}
		return fmt.Errorf("transport: target sense %#x: %s", int(resp.Sense), resp.Message)
	}
}

// PutCtx writes an object with the given class, carrying the request's ID
// and deadline on the wire. Once the request is in flight the target
// enforces the deadline on its side.
func (o ops) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	resp, err := o.call(rc, Request{Op: OpPut, Object: id, Class: class, Dirty: dirty, Payload: data})
	return resp.Cost, err
}

// GetLeasedCtx reads an object into a pooled leased buffer delivered
// straight off the wire: the buffer is the response frame itself, narrowed
// to the payload, so the read path never copies payload bytes. The caller
// owns the lease and must Release it (directly or through the cache's
// Result lease protocol) when done with the bytes.
func (o ops) GetLeasedCtx(rc *reqctx.Ctx, id osd.ObjectID) (buf *bufpool.Buf, cost time.Duration, degraded bool, err error) {
	resp, frame, err := o.callFrame(rc, Request{Op: OpGet, Object: id})
	if err != nil {
		return nil, 0, false, err
	}
	if frame == nil {
		// Zero-length object: hand back an (empty) lease all the same so
		// the caller's release discipline is uniform.
		return bufpool.Get(0), resp.Cost, resp.Degraded, nil
	}
	// Narrow the frame lease to the payload and hand it off; from the
	// wire's perspective the frame is released (the caller now owns it
	// under the ordinary bufpool lease protocol).
	frame.View(frame.Len()-len(resp.Payload), len(resp.Payload))
	wireReleases.Add(1)
	return frame, resp.Cost, resp.Degraded, nil
}

// DeleteCtx removes an object. Not cancellable (see exchange).
func (o ops) DeleteCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	_, err := o.call(rc, Request{Op: OpDelete, Object: id})
	return err
}

// ControlCtx writes a raw message to the communication object and returns
// the target's sense code (the sense itself is the answer; no error mapping).
func (o ops) ControlCtx(rc *reqctx.Ctx, msg osd.ControlMessage) (osd.SenseCode, error) {
	resp, frame, err := o.exchange(rc, Request{Op: OpControl, Payload: msg.Encode()})
	releaseFrame(frame)
	if err != nil {
		return osd.SenseFailure, err
	}
	return resp.Sense, nil
}

// StatusCtx classifies an object per §IV.D.
func (o ops) StatusCtx(rc *reqctx.Ctx, id osd.ObjectID) (store.ObjectStatus, error) {
	resp, err := o.call(rc, Request{Op: OpStatus, Object: id})
	return store.ObjectStatus(resp.Status), err
}

// TargetStats snapshots the target's health and occupancy.
func (o ops) TargetStats() (target.Stats, error) {
	resp, err := o.call(nil, Request{Op: OpStats})
	return resp.Stats, err
}

// Inventory fetches the target's user-object inventory: identity, size,
// class, and dirty flag for every live object. A cluster initiator uses it
// to adopt an already-populated target into its placement directory.
func (o ops) Inventory() ([]osd.Info, error) { return payloadCall(o, OpList, decodeInventory) }

// SegStats fetches the target's per-device segment-layout snapshot: layout,
// segment occupancy, garbage, and write-amplification counters in slot
// order. Meaningful fields are a subset under the in-place layout (host
// write counters and wear only).
func (o ops) SegStats() ([]flash.SegmentStats, error) {
	return payloadCall(o, OpSegStats, decodeSegStats)
}

// Tune sets one named target-side knob (a "policy.read.degraded.hedge.*"
// key) via a #TUNE# control message.
func (o ops) Tune(key string, value float64) error {
	msg := osd.TuneCommand{Key: key, Value: value}.Encode()
	_, err := o.call(nil, Request{Op: OpControl, Payload: []byte(msg)})
	return err
}

// FailDevice injects a device failure (the shootdown channel of §VI.C).
func (o ops) FailDevice(idx int) error {
	_, err := o.call(nil, Request{Op: OpFailDevice, Index: int32(idx)})
	return err
}

// InsertSpare installs a blank spare and starts recovery, returning the
// rebuild queue length.
func (o ops) InsertSpare(idx int) (int, error) {
	resp, err := o.call(nil, Request{Op: OpInsertSpare, Index: int32(idx)})
	return int(resp.Value), err
}

// RecoverStepCtx rebuilds up to n objects of the target's rebuild queue,
// returning the virtual cost, how many were rebuilt, and whether the queue
// has drained.
func (o ops) RecoverStepCtx(rc *reqctx.Ctx, n int) (cost time.Duration, rebuilt int, done bool, err error) {
	resp, err := o.call(rc, Request{Op: OpRecoverStep, Index: int32(n)})
	return resp.Cost, int(resp.Value), resp.Done, err
}

// MarkCleanCtx clears the dirty flag of an object after a flush. Not
// cancellable (see exchange).
func (o ops) MarkCleanCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	_, err := o.call(rc, Request{Op: OpMarkClean, Object: id})
	return err
}

// ReclassifyCtx relabels (and possibly re-encodes) an object.
func (o ops) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	resp, err := o.call(rc, Request{Op: OpReclassify, Object: id, Class: class})
	return resp.Cost, err
}

// WriteRangeCtx applies a partial in-place update, marking the object dirty.
func (o ops) WriteRangeCtx(rc *reqctx.Ctx, id osd.ObjectID, offset int64, data []byte) (time.Duration, error) {
	resp, err := o.call(rc, Request{Op: OpWriteRange, Object: id, Offset: offset, Payload: data})
	return resp.Cost, err
}

// Policy fetches the target's redundancy policy.
func (o ops) Policy() (policy.Policy, error) {
	resp, err := o.call(nil, Request{Op: OpPolicy})
	if err != nil {
		return nil, err
	}
	return policyFromWire(resp.Status, resp.Value), nil
}
