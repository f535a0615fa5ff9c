package osd

import (
	"errors"
	"sync"
	"testing"
)

func userInfo(pid, oid uint64) Info {
	return Info{ID: ObjectID{PID: pid, OID: oid}, Type: TypeUser, Class: ClassColdClean, Size: 100}
}

func TestNewDirectoryHasReservedMetadata(t *testing.T) {
	d := NewDirectory()
	for _, oid := range []uint64{SuperBlockOID, DeviceTableOID, RootDirectoryOID} {
		info, err := d.Lookup(ObjectID{PID: FirstPID, OID: oid})
		if err != nil {
			t.Fatalf("metadata object %#x missing: %v", oid, err)
		}
		if info.Class != ClassMetadata {
			t.Fatalf("metadata object %#x has class %v", oid, info.Class)
		}
	}
	counts := d.CountByClass()
	if counts[ClassMetadata] != 3 {
		t.Fatalf("metadata count = %d, want 3", counts[ClassMetadata])
	}
}

func TestCreateLookupRemove(t *testing.T) {
	d := NewDirectory()
	oid := d.AllocateOID()
	if err := d.CreateObject(userInfo(FirstPID, oid)); err != nil {
		t.Fatal(err)
	}
	info, err := d.Lookup(ObjectID{PID: FirstPID, OID: oid})
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 100 || info.Type != TypeUser {
		t.Fatalf("Lookup = %+v", info)
	}
	if !d.Exists(ObjectID{PID: FirstPID, OID: oid}) {
		t.Fatal("Exists = false for present object")
	}
	if err := d.Remove(ObjectID{PID: FirstPID, OID: oid}); err != nil {
		t.Fatal(err)
	}
	if d.Exists(ObjectID{PID: FirstPID, OID: oid}) {
		t.Fatal("object still exists after Remove")
	}
	if err := d.Remove(ObjectID{PID: FirstPID, OID: oid}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double remove err = %v, want ErrNoSuchObject", err)
	}
}

// A put of a new object asks Exists and hears "no": that answer, for a
// missing object or a missing partition, allocates nothing.
func TestExistsAllocFree(t *testing.T) {
	d := NewDirectory()
	present := ObjectID{PID: FirstPID, OID: d.AllocateOID()}
	if err := d.CreateObject(userInfo(present.PID, present.OID)); err != nil {
		t.Fatal(err)
	}
	absent := ObjectID{PID: FirstPID, OID: d.AllocateOID()}
	elsewhere := ObjectID{PID: FirstPID + 7, OID: present.OID}
	if n := testing.AllocsPerRun(100, func() {
		if !d.Exists(present) || d.Exists(absent) || d.Exists(elsewhere) {
			t.Fatal("Exists wrong")
		}
	}); n != 0 {
		t.Fatalf("Exists allocates %.0f times per three calls, want 0", n)
	}
}

func TestCreateValidation(t *testing.T) {
	d := NewDirectory()
	if err := d.CreateObject(userInfo(FirstPID, 0x42)); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("low OID err = %v, want ErrInvalidID", err)
	}
	if err := d.CreateObject(userInfo(0x20000, FirstUserOID)); !errors.Is(err, ErrNoSuchPartition) {
		t.Fatalf("missing partition err = %v, want ErrNoSuchPartition", err)
	}
	info := userInfo(FirstPID, FirstUserOID)
	if err := d.CreateObject(info); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateObject(info); !errors.Is(err, ErrObjectExists) {
		t.Fatalf("duplicate err = %v, want ErrObjectExists", err)
	}
	bad := userInfo(FirstPID, FirstUserOID+1)
	bad.Type = TypeRoot
	if err := d.CreateObject(bad); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("root-typed object err = %v, want ErrInvalidID", err)
	}
}

func TestPartitionManagement(t *testing.T) {
	d := NewDirectory()
	if err := d.CreatePartition(0x20000); err != nil {
		t.Fatal(err)
	}
	if err := d.CreatePartition(0x20000); !errors.Is(err, ErrObjectExists) {
		t.Fatalf("duplicate partition err = %v", err)
	}
	if err := d.CreatePartition(0x1); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("low PID err = %v", err)
	}
	pids := d.Partitions()
	if len(pids) != 2 || pids[0] != FirstPID || pids[1] != 0x20000 {
		t.Fatalf("Partitions = %#x", pids)
	}
}

func TestSetClassAndUpdate(t *testing.T) {
	d := NewDirectory()
	id := ObjectID{PID: FirstPID, OID: d.AllocateOID()}
	if err := d.CreateObject(Info{ID: id, Type: TypeUser, Class: ClassColdClean}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetClass(id, ClassHotClean); err != nil {
		t.Fatal(err)
	}
	info, err := d.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Class != ClassHotClean {
		t.Fatalf("class = %v, want hot-clean", info.Class)
	}
	if err := d.SetClass(id, Class(99)); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("invalid class err = %v", err)
	}
	if err := d.SetClass(ObjectID{PID: FirstPID, OID: 0xdead0}, ClassDirty); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("missing object err = %v", err)
	}
	if err := d.Update(id, func(i *Info) { i.Dirty = true }); err != nil {
		t.Fatal(err)
	}
	info, _ = d.Lookup(id)
	if !info.Dirty {
		t.Fatal("Update did not persist")
	}
}

func TestCollections(t *testing.T) {
	d := NewDirectory()
	coll := ObjectID{PID: FirstPID, OID: d.AllocateOID()}
	if err := d.CreateObject(Info{ID: coll, Type: TypeCollection, Class: ClassMetadata}); err != nil {
		t.Fatal(err)
	}
	var members []ObjectID
	for i := 0; i < 3; i++ {
		id := ObjectID{PID: FirstPID, OID: d.AllocateOID()}
		if err := d.CreateObject(Info{ID: id, Type: TypeUser, Class: ClassColdClean}); err != nil {
			t.Fatal(err)
		}
		if err := d.AddToCollection(coll, id); err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	got, err := d.CollectionMembers(coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("members = %v", got)
	}
	// Removing a member prunes it from the collection.
	if err := d.Remove(members[1]); err != nil {
		t.Fatal(err)
	}
	got, err = d.CollectionMembers(coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("members after removal = %v", got)
	}
	// Cross-partition membership is rejected.
	if err := d.CreatePartition(0x20000); err != nil {
		t.Fatal(err)
	}
	other := ObjectID{PID: 0x20000, OID: FirstUserOID}
	if err := d.CreateObject(Info{ID: other, Type: TypeUser}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddToCollection(coll, other); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("cross-partition err = %v", err)
	}
	// Adding to a non-collection fails.
	if err := d.AddToCollection(members[0], members[2]); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("non-collection err = %v", err)
	}
}

func TestListOrdering(t *testing.T) {
	d := NewDirectory()
	for i := 0; i < 5; i++ {
		if err := d.CreateObject(userInfo(FirstPID, d.AllocateOID())); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := d.List(FirstPID)
	if err != nil {
		t.Fatal(err)
	}
	// 3 reserved metadata objects + 5 users.
	if len(infos) != 8 {
		t.Fatalf("List returned %d objects, want 8", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].ID.OID >= infos[i].ID.OID {
			t.Fatal("List not sorted by OID")
		}
	}
	if _, err := d.List(0x99999); !errors.Is(err, ErrNoSuchPartition) {
		t.Fatalf("List missing partition err = %v", err)
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	d := NewDirectory()
	id := ObjectID{PID: FirstPID, OID: d.AllocateOID()}
	if err := d.CreateObject(Info{ID: id, Type: TypeUser, Attributes: map[uint32][]byte{1: {0xaa}}}); err != nil {
		t.Fatal(err)
	}
	info, err := d.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	info.Size = 9999
	again, _ := d.Lookup(id)
	if again.Size == 9999 {
		t.Fatal("Lookup exposed internal state")
	}
}

func TestAllocateOIDConcurrent(t *testing.T) {
	d := NewDirectory()
	const workers, per = 8, 100
	var mu sync.Mutex
	seen := make(map[uint64]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				oid := d.AllocateOID()
				mu.Lock()
				if seen[oid] {
					t.Errorf("duplicate OID %#x", oid)
				}
				seen[oid] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
