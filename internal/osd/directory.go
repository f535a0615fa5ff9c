package osd

import (
	"fmt"
	"sort"
	"sync"
)

// Directory is the in-memory object namespace of one OSD logical unit: the
// root object, its partitions, and each partition's collection and user
// objects. The paper's modified osd-target replaces the original file-system
// + SQLite metadata with "a hash table to manage the data storage" (§V);
// Directory is that hash table, with the OSD structural rules (Figure 2,
// Table I) enforced on top.
//
// Directory holds object *metadata* only; object payloads live in the stripe
// store. All methods are safe for concurrent use.
type Directory struct {
	mu         sync.RWMutex
	partitions map[uint64]*partition
	nextOID    uint64
}

type partition struct {
	objects     map[uint64]*Info
	collections map[uint64]map[uint64]bool // collection OID -> member OIDs
}

// NewDirectory returns a directory with the default partition (FirstPID) and
// the exofs-reserved metadata objects (Super Block, Device Table, Root
// Directory) pre-created as ClassMetadata objects, mirroring Table I.
func NewDirectory() *Directory {
	d := &Directory{
		partitions: make(map[uint64]*partition),
		nextOID:    FirstUserOID,
	}
	d.partitions[FirstPID] = newPartition()
	for _, oid := range []uint64{SuperBlockOID, DeviceTableOID, RootDirectoryOID} {
		d.partitions[FirstPID].objects[oid] = &Info{
			ID:    ObjectID{PID: FirstPID, OID: oid},
			Type:  TypeUser,
			Class: ClassMetadata,
			Size:  4096, // the paper notes the largest metadata object is 4KB
		}
	}
	return d
}

func newPartition() *partition {
	return &partition{
		objects:     make(map[uint64]*Info),
		collections: make(map[uint64]map[uint64]bool),
	}
}

// CreatePartition adds a partition with the given PID.
func (d *Directory) CreatePartition(pid uint64) error {
	if pid < FirstPID {
		return fmt.Errorf("%w: partition ID %#x below %#x", ErrInvalidID, pid, FirstPID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.partitions[pid]; ok {
		return fmt.Errorf("%w: partition %#x", ErrObjectExists, pid)
	}
	d.partitions[pid] = newPartition()
	return nil
}

// Partitions returns the PIDs of all partitions in ascending order.
func (d *Directory) Partitions() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]uint64, 0, len(d.partitions))
	for pid := range d.partitions {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllocateOID reserves the next free user-object OID. Allocated OIDs start
// above the exofs reservations.
func (d *Directory) AllocateOID() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	oid := d.nextOID
	d.nextOID++
	return oid
}

// CreateObject records a new user or collection object.
func (d *Directory) CreateObject(info Info) error {
	if info.ID.OID < FirstOID {
		return fmt.Errorf("%w: object ID %#x below %#x", ErrInvalidID, info.ID.OID, FirstOID)
	}
	if info.Type != TypeUser && info.Type != TypeCollection {
		return fmt.Errorf("%w: directory holds user/collection objects, got %v", ErrInvalidID, info.Type)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.partitions[info.ID.PID]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNoSuchPartition, info.ID.PID)
	}
	if _, exists := p.objects[info.ID.OID]; exists {
		return fmt.Errorf("%w: %v", ErrObjectExists, info.ID)
	}
	cp := info
	if info.Attributes != nil {
		cp.Attributes = make(map[uint32][]byte, len(info.Attributes))
		for k, v := range info.Attributes {
			cp.Attributes[k] = append([]byte(nil), v...)
		}
	}
	p.objects[info.ID.OID] = &cp
	if info.Type == TypeCollection {
		p.collections[info.ID.OID] = make(map[uint64]bool)
	}
	return nil
}

// Lookup returns a copy of the object's metadata.
func (d *Directory) Lookup(id ObjectID) (Info, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	info, err := d.locked(id)
	if err != nil {
		return Info{}, err
	}
	return *info, nil
}

// Exists reports whether the object is present. "No" is the common answer
// (every put of a new object asks), so it is not routed through Lookup's
// formatted error.
func (d *Directory) Exists(id ObjectID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.partitions[id.PID]
	if !ok {
		return false
	}
	_, ok = p.objects[id.OID]
	return ok
}

// Update applies fn to the object's metadata under the directory lock.
func (d *Directory) Update(id ObjectID, fn func(*Info)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, err := d.locked(id)
	if err != nil {
		return err
	}
	fn(info)
	return nil
}

// SetClass updates the object's class label (the effect of a #SETID#
// command).
func (d *Directory) SetClass(id ObjectID, class Class) error {
	if !class.Valid() {
		return fmt.Errorf("%w: class %d", ErrInvalidID, class)
	}
	return d.Update(id, func(info *Info) { info.Class = class })
}

// Remove deletes the object and its collection memberships.
func (d *Directory) Remove(id ObjectID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.partitions[id.PID]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNoSuchPartition, id.PID)
	}
	info, ok := p.objects[id.OID]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchObject, id)
	}
	delete(p.objects, id.OID)
	if info.Type == TypeCollection {
		delete(p.collections, id.OID)
	} else {
		for _, members := range p.collections {
			delete(members, id.OID)
		}
	}
	return nil
}

// AddToCollection adds a user object to a collection in the same partition.
// Per OSD-2, a user object may belong to zero or more collections.
func (d *Directory) AddToCollection(collection, member ObjectID) error {
	if collection.PID != member.PID {
		return fmt.Errorf("%w: collection and member must share a partition", ErrInvalidID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.partitions[collection.PID]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNoSuchPartition, collection.PID)
	}
	members, ok := p.collections[collection.OID]
	if !ok {
		return fmt.Errorf("%w: collection %v", ErrNoSuchObject, collection)
	}
	if _, ok := p.objects[member.OID]; !ok {
		return fmt.Errorf("%w: member %v", ErrNoSuchObject, member)
	}
	members[member.OID] = true
	return nil
}

// CollectionMembers returns the member OIDs of a collection in ascending
// order.
func (d *Directory) CollectionMembers(collection ObjectID) ([]uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.partitions[collection.PID]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrNoSuchPartition, collection.PID)
	}
	members, ok := p.collections[collection.OID]
	if !ok {
		return nil, fmt.Errorf("%w: collection %v", ErrNoSuchObject, collection)
	}
	out := make([]uint64, 0, len(members))
	for oid := range members {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// List returns copies of all objects in a partition, ordered by OID.
func (d *Directory) List(pid uint64) ([]Info, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.partitions[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrNoSuchPartition, pid)
	}
	out := make([]Info, 0, len(p.objects))
	for _, info := range p.objects {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.OID < out[j].ID.OID })
	return out, nil
}

// CountByClass returns the number of objects per class across all
// partitions.
func (d *Directory) CountByClass() [NumClasses]int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out [NumClasses]int
	for _, p := range d.partitions {
		for _, info := range p.objects {
			if info.Class.Valid() {
				out[info.Class]++
			}
		}
	}
	return out
}

func (d *Directory) locked(id ObjectID) (*Info, error) {
	p, ok := d.partitions[id.PID]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrNoSuchPartition, id.PID)
	}
	info, ok := p.objects[id.OID]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchObject, id)
	}
	return info, nil
}
