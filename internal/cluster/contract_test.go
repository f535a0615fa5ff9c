package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// TestDeleteAndMarkCleanIgnoreDeadRequests holds the three Target
// implementations to one contract. A delete or a dirty-flag clear issued
// under a cancelled or expired request still completes — the caller has
// already acted on it — whether the target is a store, a store behind the
// wire, or a cluster of either; everything else refuses a dead request and
// reports a missing object as store.ErrNotFound.
func TestDeleteAndMarkCleanIgnoreDeadRequests(t *testing.T) {
	pol := policy.Reo{ParityBudget: 0.4}
	cluster := func(t *testing.T, wire bool) (target.Target, []*store.Store) {
		stores := []*store.Store{newShardStore(t, pol), newShardStore(t, pol)}
		shards := make([]Shard, len(stores))
		for i, st := range stores {
			shards[i] = Shard{Name: string(rune('a' + i)), Target: st}
			if wire {
				shards[i].Target = wireShard(t, st)
			}
		}
		ini, err := New(Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return ini, stores
	}
	targets := []struct {
		name  string
		build func(t *testing.T) (target.Target, []*store.Store)
	}{
		{"store", func(t *testing.T) (target.Target, []*store.Store) {
			st := newShardStore(t, pol)
			return st, []*store.Store{st}
		}},
		{"remote target", func(t *testing.T) (target.Target, []*store.Store) {
			st := newShardStore(t, pol)
			return wireShard(t, st), []*store.Store{st}
		}},
		{"initiator over stores", func(t *testing.T) (target.Target, []*store.Store) { return cluster(t, false) }},
		{"initiator over remote targets", func(t *testing.T) (target.Target, []*store.Store) { return cluster(t, true) }},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	requests := []struct {
		name string
		rc   func() *reqctx.Ctx
		err  error
	}{
		{"cancelled", func() *reqctx.Ctx { return reqctx.New(cancelled) }, context.Canceled},
		{"deadline passed", func() *reqctx.Ctx {
			return reqctx.New(context.Background()).WithDeadline(time.Now().Add(-time.Second))
		}, context.DeadlineExceeded},
	}

	for _, tg := range targets {
		for _, rq := range requests {
			t.Run(tg.name+"/"+rq.name, func(t *testing.T) {
				tgt, stores := tg.build(t)
				holder := func(id osd.ObjectID) *store.Store {
					for _, st := range stores {
						if st.Has(id) {
							return st
						}
					}
					return nil
				}
				id, absent := testID(1), testID(2)
				if _, err := tgt.PutCtx(nil, id, testPayload(1, 0), osd.ClassDirty, true); err != nil {
					t.Fatal(err)
				}

				if _, err := tgt.PutCtx(rq.rc(), absent, testPayload(2, 0), osd.ClassColdClean, false); !errors.Is(err, rq.err) {
					t.Errorf("put under a dead request: %v, want %v", err, rq.err)
				}
				if holder(absent) != nil {
					t.Error("put under a dead request stored the object")
				}
				if _, _, _, err := tgt.GetCtx(nil, absent); !errors.Is(err, store.ErrNotFound) {
					t.Errorf("get of a missing object: %v, want ErrNotFound", err)
				}
				if err := tgt.DeleteCtx(nil, absent); !errors.Is(err, store.ErrNotFound) {
					t.Errorf("delete of a missing object: %v, want ErrNotFound", err)
				}
				if _, err := tgt.ReclassifyCtx(nil, absent, osd.ClassHotClean); !errors.Is(err, store.ErrNotFound) {
					t.Errorf("reclassify of a missing object: %v, want ErrNotFound", err)
				}
				got := target.GetBatch(tgt, nil, []osd.ObjectID{id, absent})
				if got[0].Err != nil || !bytes.Equal(got[0].Buf.Bytes(), testPayload(1, 0)) {
					t.Errorf("batch get of the present object: err %v", got[0].Err)
				}
				if !errors.Is(got[1].Err, store.ErrNotFound) {
					t.Errorf("batch get of the missing object: %v, want ErrNotFound", got[1].Err)
				}
				got[0].Release()

				if err := tgt.MarkCleanCtx(rq.rc(), id); err != nil {
					t.Errorf("MarkCleanCtx under a dead request: %v", err)
				}
				if info, err := holder(id).Info(id); err != nil || info.Dirty {
					t.Errorf("after MarkCleanCtx: dirty %v, err %v", info.Dirty, err)
				}
				if err := tgt.DeleteCtx(rq.rc(), id); err != nil {
					t.Errorf("DeleteCtx under a dead request: %v", err)
				}
				if holder(id) != nil {
					t.Error("after DeleteCtx the object is still on its target")
				}
			})
		}
	}
}
