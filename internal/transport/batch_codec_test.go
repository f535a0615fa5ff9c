package transport

import (
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/target"
)

// The allocating forms of the batch codecs that TestBatchWireFormatGolden
// pins the wire with, as adapters over the in-place codecs the data path
// runs: one encoder and one entry parser per layout, so the golden bytes
// check exactly what goes on the wire.

func encodeBatchIDs(ids []osd.ObjectID) []byte { return appendBatchIDs(nil, ids) }

func decodeBatchIDs(payload []byte) ([]osd.ObjectID, error) { return decodeBatchIDsInto(nil, payload) }

func encodePutBatch(ops []target.BatchPut) []byte { return appendPutBatch(nil, ops) }

func decodePutBatchInPlace(payload []byte) ([]target.BatchPut, error) {
	return decodePutOpsInto(nil, payload)
}

// wireGetResult is one parsed OpGetBatch response entry; Data aliases the
// payload.
type wireGetResult struct {
	Sense    osd.SenseCode
	Degraded bool
	Cost     time.Duration
	Message  string
	Data     []byte
}

func decodeGetBatchResults(payload []byte) ([]wireGetResult, error) {
	var out []wireGetResult
	for rest := payload; len(rest) > 0; {
		e, tail, err := nextGetBatchEntry(rest)
		if err != nil {
			return nil, err
		}
		rest = tail
		out = append(out, wireGetResult{Sense: e.sense, Degraded: e.degraded, Cost: e.cost, Message: string(e.msg), Data: e.data})
	}
	return out, nil
}

// wirePutResult is one parsed OpPutBatch response entry.
type wirePutResult struct {
	Sense   osd.SenseCode
	Cost    time.Duration
	Message string
}

func decodePutBatchResults(payload []byte) ([]wirePutResult, error) {
	var out []wirePutResult
	for rest := payload; len(rest) > 0; {
		e, tail, err := nextPutBatchEntry(rest)
		if err != nil {
			return nil, err
		}
		rest = tail
		out = append(out, wirePutResult{Sense: e.sense, Cost: e.cost, Message: string(e.msg)})
	}
	return out, nil
}
