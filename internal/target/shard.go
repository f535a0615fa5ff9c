package target

import (
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// Stats is one target's health and occupancy snapshot: what OpStats carries
// over the wire and what a cluster initiator reports per shard.
type Stats struct {
	// Objects counts live objects, metadata objects included.
	Objects         int64
	UsedBytes       int64
	RawCapacity     int64
	SpaceEfficiency float64
	AliveDevices    int
	Devices         int
	RecoveryActive  bool
	// RecoveryQueue is how many objects still await rebuild.
	RecoveryQueue int
}

// ShardTarget is a Target that owns (or directly reaches) one flash array
// and can therefore answer for it: *store.Store and *transport.RemoteTarget.
// A cluster initiator uses these three capabilities to adopt, report on and
// rebuild its members. A shard that is only a Target (a test double, a
// tracing decorator) is adopted empty, reports just the health Target
// exposes, and has nothing to recover.
type ShardTarget interface {
	Target
	// Inventory lists every live user object: identity, size, class and
	// dirty flag, sorted by (PID, OID).
	Inventory() ([]osd.Info, error)
	// TargetStats snapshots the target's health and occupancy.
	TargetStats() (Stats, error)
	// RecoverStepCtx rebuilds up to maxObjects queued objects and reports
	// whether the rebuild queue has drained.
	RecoverStepCtx(rc *reqctx.Ctx, maxObjects int) (cost time.Duration, rebuilt int, done bool, err error)
}
