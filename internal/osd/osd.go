// Package osd implements the T10 Object Storage Device (OSD) object model
// that Reo is built on (paper §II.A, Table I): objects addressed by a
// (partition ID, object ID) pair, the reserved metadata objects exofs
// defines (Super Block, Device Table, Root Directory), the special
// communication object through which the cache manager delivers
// classification hints and queries (§IV.C.2), and the sense codes the
// target returns (Table III).
package osd

import (
	"errors"
	"fmt"
)

// Well-known identifiers from the OSD-2 specification and the exofs
// reservations listed in Table I of the paper.
const (
	// FirstPID is the lowest valid partition ID; partitions occupy
	// 0x10000 and above. A target exports this one partition.
	FirstPID uint64 = 0x10000
	// FirstOID is the lowest valid object ID within a partition.
	FirstOID uint64 = 0x10000
	// SuperBlockOID, DeviceTableOID, and RootDirectoryOID are the exofs
	// metadata reservations in partition FirstPID.
	SuperBlockOID    uint64 = 0x10000
	DeviceTableOID   uint64 = 0x10001
	RootDirectoryOID uint64 = 0x10002
	// ControlOID is Reo's reserved communication object (§IV.C.2,
	// §V: "a special object (OID: 0x10004)"). Writes to it carry control
	// messages rather than data.
	ControlOID uint64 = 0x10004
	// FirstUserOID is the first OID handed out for regular user data,
	// placed above the reservations.
	FirstUserOID uint64 = 0x10010
)

// ObjectID identifies an object within an OSD logical unit.
type ObjectID struct {
	PID uint64
	OID uint64
}

// String renders the ID in the pid:oid hex form used in logs and wire
// messages.
func (id ObjectID) String() string { return fmt.Sprintf("0x%x:0x%x", id.PID, id.OID) }

// ControlID returns the communication object's ID in the default partition.
func ControlID() ObjectID { return ObjectID{PID: FirstPID, OID: ControlOID} }

// Class is the semantic importance label Reo attaches to every object
// (paper Table II). Lower class IDs are more important.
type Class int

// The four classes of Table II.
const (
	// ClassMetadata (Class ID 0): system metadata — root, partition,
	// super block, device table, root directory objects. Strongest
	// protection.
	ClassMetadata Class = 0
	// ClassDirty (Class ID 1): dirty cache data, the only valid copy in
	// the system.
	ClassDirty Class = 1
	// ClassHotClean (Class ID 2): frequently read, clean data.
	ClassHotClean Class = 2
	// ClassColdClean (Class ID 3): infrequently read, clean data. Lowest
	// protection.
	ClassColdClean Class = 3
)

// NumClasses is the number of defined classes.
const NumClasses = 4

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return c >= ClassMetadata && c <= ClassColdClean }

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassMetadata:
		return "metadata"
	case ClassDirty:
		return "dirty"
	case ClassHotClean:
		return "hot-clean"
	case ClassColdClean:
		return "cold-clean"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// SenseCode is the status a target returns for a command (paper Table III).
type SenseCode int

// Sense codes from Table III.
const (
	SenseOK             SenseCode = 0
	SenseFailure        SenseCode = -1
	SenseCorrupted      SenseCode = 0x63
	SenseCacheFull      SenseCode = 0x64
	SenseRecoveryStarts SenseCode = 0x65
	SenseRecoveryEnds   SenseCode = 0x66
	SenseRedundancyFull SenseCode = 0x67
	// SenseCancelled and SenseDeadline extend Table III for the request
	// lifecycle: commands abandoned by the client before completion and
	// commands whose deadline passed before (or while) the target ran them.
	SenseCancelled SenseCode = 0x68
	SenseDeadline  SenseCode = 0x69
	// SenseNotFound extends Table III for commands naming an object the
	// target does not hold. A concurrent initiator needs it distinguishable
	// from SenseFailure: a read that races an eviction is a miss to retry
	// against the backend, not a hard error.
	SenseNotFound SenseCode = 0x6a
)

// String returns the description from Table III.
func (s SenseCode) String() string {
	switch s {
	case SenseOK:
		return "the command is successful"
	case SenseFailure:
		return "the command is unsuccessful"
	case SenseCorrupted:
		return "data is corrupted"
	case SenseCacheFull:
		return "the cache is full"
	case SenseRecoveryStarts:
		return "recovery starts"
	case SenseRecoveryEnds:
		return "recovery ends"
	case SenseRedundancyFull:
		return "the allocated space for data redundancy is full"
	case SenseCancelled:
		return "the command was cancelled"
	case SenseDeadline:
		return "the command deadline was exceeded"
	case SenseNotFound:
		return "the object is not present on the target"
	default:
		return fmt.Sprintf("SenseCode(%#x)", int(s))
	}
}

// Info is the per-object metadata the target tracks.
type Info struct {
	ID    ObjectID
	Class Class
	// Size is the object's logical size in bytes.
	Size int64
	// Dirty marks objects whose latest content exists only in cache.
	Dirty bool
}

// Errors for an object ID a target does not export.
var (
	ErrNoSuchPartition = errors.New("osd: no such partition")
	ErrInvalidID       = errors.New("osd: invalid object identifier")
)
