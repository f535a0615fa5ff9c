package osd

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file implements the control-message codec for Reo's communication
// object (paper §IV.C.2). All control messages are written synchronously to
// the reserved object (OID 0x10004) in a predefined '#'-delimited text
// format. Two commands are defined:
//
//	Classification: #SETID#<pid>#<oid>#<cid>
//	Query:          #QUERY#<pid>#<oid>#<R|W>#<offset>#<size>
//
// PIDs and OIDs are hexadecimal (0x-prefixed), matching the paper's ID
// notation; the class ID, offset and size are decimal.

// Message headers.
const (
	headerSetID = "#SETID#"
	headerQuery = "#QUERY#"
	headerTune  = "#TUNE#"
)

// OpType is the operation type carried by a query command.
type OpType byte

// Query operation types.
const (
	OpRead  OpType = 'R'
	OpWrite OpType = 'W'
)

// Valid reports whether the op type is defined.
func (o OpType) Valid() bool { return o == OpRead || o == OpWrite }

// String returns "R" or "W".
func (o OpType) String() string { return string(o) }

// ErrBadMessage is returned when a control message cannot be decoded.
var ErrBadMessage = errors.New("osd: malformed control message")

// ControlMessage is implemented by the commands that can be written to the
// communication object.
type ControlMessage interface {
	// Encode renders the wire form of the message.
	Encode() []byte
}

// SetIDCommand delivers a classifier (class ID) for a data object
// ("Classification command", §IV.C.2).
type SetIDCommand struct {
	Object ObjectID
	Class  Class
}

var _ ControlMessage = SetIDCommand{}

// Encode renders #SETID#<pid>#<oid>#<cid>.
func (c SetIDCommand) Encode() []byte {
	return []byte(fmt.Sprintf("%s0x%x#0x%x#%d", headerSetID, c.Object.PID, c.Object.OID, c.Class))
}

// QueryCommand retrieves the status of a queried object ("Query command",
// §IV.C.2). Offset and Size delimit the byte range of interest.
type QueryCommand struct {
	Object ObjectID
	Op     OpType
	Offset int64
	Size   int64
}

var _ ControlMessage = QueryCommand{}

// Encode renders #QUERY#<pid>#<oid>#<R|W>#<offset>#<size>.
func (c QueryCommand) Encode() []byte {
	return []byte(fmt.Sprintf("%s0x%x#0x%x#%c#%d#%d",
		headerQuery, c.Object.PID, c.Object.OID, byte(c.Op), c.Offset, c.Size))
}

// TuneCommand adjusts one named runtime knob on the target (reoctl tune).
// Keys are low-cardinality dotted names; the target rejects unknown keys.
// Currently defined: "policy.read.degraded.hedge.delay" and
// "policy.read.degraded.hedge.max", the hedged-read rule
// (policy.Resilience.Tune).
type TuneCommand struct {
	Key   string
	Value float64
}

var _ ControlMessage = TuneCommand{}

// Encode renders #TUNE#<key>#<value>.
func (c TuneCommand) Encode() []byte {
	return []byte(fmt.Sprintf("%s%s#%g", headerTune, c.Key, c.Value))
}

// DecodeControlMessage parses a message written to the communication object.
// It returns a SetIDCommand, QueryCommand, or TuneCommand.
func DecodeControlMessage(raw []byte) (ControlMessage, error) {
	s := string(raw)
	switch {
	case strings.HasPrefix(s, headerSetID):
		return decodeSetID(strings.TrimPrefix(s, headerSetID))
	case strings.HasPrefix(s, headerQuery):
		return decodeQuery(strings.TrimPrefix(s, headerQuery))
	case strings.HasPrefix(s, headerTune):
		return decodeTune(strings.TrimPrefix(s, headerTune))
	default:
		return nil, fmt.Errorf("%w: unknown header in %q", ErrBadMessage, truncate(s))
	}
}

func decodeTune(body string) (ControlMessage, error) {
	fields := strings.Split(body, "#")
	if len(fields) != 2 {
		return nil, fmt.Errorf("%w: TUNE wants 2 fields, got %d", ErrBadMessage, len(fields))
	}
	if fields[0] == "" {
		return nil, fmt.Errorf("%w: TUNE key is empty", ErrBadMessage)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return nil, fmt.Errorf("%w: TUNE value %q", ErrBadMessage, fields[1])
	}
	return TuneCommand{Key: fields[0], Value: v}, nil
}

func decodeSetID(body string) (ControlMessage, error) {
	fields := strings.Split(body, "#")
	if len(fields) != 3 {
		return nil, fmt.Errorf("%w: SETID wants 3 fields, got %d", ErrBadMessage, len(fields))
	}
	id, err := parseObjectID(fields[0], fields[1])
	if err != nil {
		return nil, err
	}
	cid, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, fmt.Errorf("%w: class id %q", ErrBadMessage, fields[2])
	}
	class := Class(cid)
	if !class.Valid() {
		return nil, fmt.Errorf("%w: class id %d out of range", ErrBadMessage, cid)
	}
	return SetIDCommand{Object: id, Class: class}, nil
}

func decodeQuery(body string) (ControlMessage, error) {
	fields := strings.Split(body, "#")
	if len(fields) != 5 {
		return nil, fmt.Errorf("%w: QUERY wants 5 fields, got %d", ErrBadMessage, len(fields))
	}
	id, err := parseObjectID(fields[0], fields[1])
	if err != nil {
		return nil, err
	}
	if len(fields[2]) != 1 || !OpType(fields[2][0]).Valid() {
		return nil, fmt.Errorf("%w: op type %q", ErrBadMessage, fields[2])
	}
	offset, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil || offset < 0 {
		return nil, fmt.Errorf("%w: offset %q", ErrBadMessage, fields[3])
	}
	size, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil || size < 0 {
		return nil, fmt.Errorf("%w: size %q", ErrBadMessage, fields[4])
	}
	return QueryCommand{
		Object: id,
		Op:     OpType(fields[2][0]),
		Offset: offset,
		Size:   size,
	}, nil
}

func parseObjectID(pidField, oidField string) (ObjectID, error) {
	pid, err := parseHex(pidField)
	if err != nil {
		return ObjectID{}, fmt.Errorf("%w: pid %q", ErrBadMessage, pidField)
	}
	oid, err := parseHex(oidField)
	if err != nil {
		return ObjectID{}, fmt.Errorf("%w: oid %q", ErrBadMessage, oidField)
	}
	return ObjectID{PID: pid, OID: oid}, nil
}

func parseHex(s string) (uint64, error) {
	s = strings.TrimPrefix(s, "0x")
	return strconv.ParseUint(s, 16, 64)
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
