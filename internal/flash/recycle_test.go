package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkChunks verifies the chunk lifetime invariants of a quiesced array (see
// Array.CheckChunks) and of the pool (see checkPool), and that no pooled chunk
// is resident.
func checkChunks(t *testing.T, a *Array) {
	t.Helper()
	if err := a.CheckChunks(); err != nil {
		t.Fatal(err)
	}
	pooled := checkPool(t)
	for i, d := range a.devices {
		d.mu.Lock()
		for addr, h := range d.chunks {
			if pooled[h.c] {
				t.Errorf("device %d chunk %d is in the pool", i, addr)
			}
		}
		d.mu.Unlock()
	}
}

// checkPool verifies the invariants of a quiesced chunk pool — the lists
// within what the hot slots' reserve leaves of the bound, the byte counter
// equal to what the lists hold, every chunk filed under its capacity's class
// and no chunk filed twice — and returns the pooled chunks.
func checkPool(t *testing.T) map[*Chunk]bool {
	t.Helper()
	pooled := make(map[*Chunk]bool)
	file := func(c *Chunk, where string) {
		if pooled[c] {
			t.Errorf("a %d-byte chunk is pooled twice (again in %s)", cap(c.buf), where)
		}
		pooled[c] = true
	}
	var listBytes, hotBytes int64
	for i := range pool.classes {
		l := &pool.classes[i]
		l.mu.Lock()
		for _, c := range l.free {
			if classOf(cap(c.buf)) != i {
				t.Errorf("a %d-byte chunk is listed in class %d (%d bytes)", cap(c.buf), i, classSize(i))
			}
			file(c, "a list")
			listBytes += footprint(c)
		}
		l.mu.Unlock()
		if c := l.hot.Load(); c != nil {
			if classOf(cap(c.buf)) != i || i >= hotClasses {
				t.Errorf("a %d-byte chunk is in class %d's hot slot", cap(c.buf), i)
			}
			file(c, "a hot slot")
			hotBytes += footprint(c)
		}
	}
	if listBytes != pool.bytes.Load() || listBytes+hotReserve > poolMaxBytes || hotBytes > hotReserve {
		t.Fatalf("pool lists hold %d bytes (counter %d), hot slots %d of %d reserved, bound %d",
			listBytes, pool.bytes.Load(), hotBytes, hotReserve, poolMaxBytes)
	}
	return pooled
}

// drainPool empties the chunk pool, so that a test starts from a known one.
// Nothing else may use the pool meanwhile.
func drainPool() {
	for i := range pool.classes {
		for pool.get(classSize(i)) != nil {
		}
	}
}

// fillPool fills a drained pool's lists to within one chunk of their share of
// the bound with chunks of scattered classes between 16 and 256 KiB.
func fillPool(rng *rand.Rand) {
	var made []*Chunk
	for room := poolMaxBytes - hotReserve; ; {
		c := newChunk(16<<10 + 1 + rng.Intn(240<<10))
		if room -= footprint(c); room < 0 {
			break
		}
		made = append(made, c)
	}
	for _, c := range made {
		c.Release()
	}
}

// TestChunkClasses pins the size-class arithmetic the pool's slack bound rests
// on, for every pooled length: a length's class is the smallest at least as
// long as it, a buffer is allocated at that class's size with less than a
// sixteenth of slack and filed back under the class it was allocated for, and
// a length served from the class above its own, where stepUp allows it, still
// leaves at most an eighth of the buffer as slack — the bound CheckChunks
// enforces.
func TestChunkClasses(t *testing.T) {
	for n := 0; n <= 1<<maxPooledShift; n++ {
		i := classOf(n)
		if classSize(i) < n || (i > 0 && classSize(i-1) >= n) {
			t.Fatalf("n=%d: class %d (%d B), previous %d B", n, i, classSize(i), classSize(i-1))
		}
		if c := classCap(n); c != classSize(i) || 16*(c-n) >= max(c, 1) || classOf(c) != i {
			t.Fatalf("n=%d: a %d-byte buffer in class %d", n, c, classOf(c))
		}
		if stepUp(i) {
			if c := classSize(i + 1); 8*(c-n) > c {
				t.Fatalf("n=%d: served from class %d, %d bytes of slack in a %d-byte buffer", n, i+1, c-n, c)
			}
		}
	}
	if n := 1<<maxPooledShift + 1; classOf(n) != poolClasses || classCap(n) != n {
		t.Fatalf("poolClasses = %d, want classOf(1<<maxPooledShift)+1 = %d", poolClasses, classOf(n-1)+1)
	}
	if classOf(1<<hotShift) != hotClasses-1 {
		t.Fatalf("hotClasses = %d, want classOf(1<<hotShift)+1 = %d", hotClasses, classOf(1<<hotShift)+1)
	}
	if stepUp(classOf(31)) || !stepUp(classOf(32)) || stepUp(poolClasses-1) {
		t.Fatal("stepUp must start at length 32 and stop at the last pooled class")
	}
}

// TestChunkPoolKeepsRecurringClassAtBound: with the pool at its bound, full of
// odd-sized tail chunks nobody asks for again, 16 KiB chunks released and
// asked for in turn are served from the pool — the tails give way to them.
// Only the first round may miss: stock is safe from eviction until the hand
// has passed it once, so the first release at the bound finds nothing idle
// and is dropped.
func TestChunkPoolKeepsRecurringClassAtBound(t *testing.T) {
	drainPool()
	defer drainPool()
	const held, rounds = 8, 50
	chunks := make([]*Chunk, held)
	for i := range chunks {
		chunks[i] = newChunk(16 << 10)
	}
	fillPool(rand.New(rand.NewSource(1)))
	misses := 0
	for round := range rounds {
		for _, c := range chunks {
			c.Release()
		}
		for i := range chunks {
			if chunks[i] = pool.get(16 << 10); chunks[i] == nil {
				if round > 0 {
					misses++
				}
				chunks[i] = newChunk(16 << 10)
			}
			chunks[i].refs = 1 // what newChunk sets on a chunk get returns
		}
	}
	if misses > 0 {
		t.Errorf("%d of %d gets of a 16 KiB chunk, each released just before, missed the pool", misses, held*(rounds-1))
	}
	checkPool(t)
}

// TestChunkPoolBoundSoak races NewChunk and Release over a hundred classes
// with the pool at its bound, so every release makes room or is dropped while
// gets empty classes and step up; each chunk's bytes are checked when it is
// released (under -race a pooled chunk is poisoned, so a chunk handed to two
// holders shows). At quiesce the pool must hold its invariants (checkPool).
func TestChunkPoolBoundSoak(t *testing.T) {
	drainPool()
	defer drainPool()
	fillPool(rand.New(rand.NewSource(2)))
	const workers, rounds, window = 4, 3000, 6
	src := payload(5, 256<<10)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var held []*Chunk
			for range rounds {
				if len(held) == window || len(held) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(held))
					c := held[k]
					if !bytes.Equal(c.buf, src[:len(c.buf)]) || Checksum(c.buf) != c.crc {
						t.Errorf("a held %d-byte chunk changed under its holder", len(c.buf))
						return
					}
					c.Release()
					held = append(held[:k], held[k+1:]...)
					continue
				}
				// A hundred classes, from 40 bytes to 256 KiB.
				n := 40 << rng.Intn(13)
				n += rng.Intn(n)
				held = append(held, NewChunk(src[:min(n, len(src))]))
			}
			for _, c := range held {
				c.Release()
			}
		}()
	}
	wg.Wait()
	checkPool(t)
}

// TestDeviceChunkRecycle drives three devices of either layout through shared
// and single-device writes, same-size and resizing overwrites, deletes,
// segment GC, chunks dropped as corrupt (on a read and, under the log layout,
// on relocation), a fail-stop and a spare, checking contents and the chunk
// lifetime invariants throughout.
func TestDeviceChunkRecycle(t *testing.T) {
	for _, layout := range []Layout{LayoutInPlace, LayoutLog} {
		t.Run(layout.String(), func(t *testing.T) {
			a, err := NewArrayLayout(3, logSpec(1<<20), layout, LogConfig{SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			devs := a.devices
			rng := rand.New(rand.NewSource(1))
			want := make([]map[ChunkAddr][]byte, len(devs))
			for i := range want {
				want[i] = make(map[ChunkAddr][]byte)
			}
			// write stores one n-byte chunk at addr on every device in on.
			write := func(addr ChunkAddr, n int, on ...int) {
				t.Helper()
				data := make([]byte, n)
				rng.Read(data)
				c := NewChunk(data)
				for _, i := range on {
					if _, err := devs[i].WriteCtx(nil, addr, c); err != nil {
						t.Fatalf("device %d: write %d (%d bytes): %v", i, addr, n, err)
					}
					want[i][addr] = data
				}
				c.Release()
			}
			verify := func() {
				t.Helper()
				checkChunks(t, a)
				dst := make([]byte, 8<<10)
				for i, d := range devs {
					for addr, data := range want[i] {
						n, _, err := d.ReadInto(nil, addr, dst)
						if err != nil || !bytes.Equal(dst[:n], data) {
							t.Fatalf("device %d chunk %d: read back %d bytes, err %v; want its %d bytes", i, addr, n, err, len(data))
						}
					}
				}
			}

			for a := ChunkAddr(0); a < 40; a++ {
				write(a, 1000+37*int(a), 0, 1, 2)
			}
			verify()

			// Churn: shared and single-device writes, overwrites of either
			// size, deletes, the log layout collecting as it goes.
			for i := 0; i < 2000; i++ {
				addr := ChunkAddr(rng.Intn(60))
				switch rng.Intn(5) {
				case 0:
					dev := rng.Intn(len(devs))
					if err := devs[dev].Delete(addr); err != nil {
						t.Fatal(err)
					}
					delete(want[dev], addr)
				case 1:
					dev := rng.Intn(len(devs))
					n := 500 + rng.Intn(4000)
					if old, ok := want[dev][addr]; ok && rng.Intn(2) == 0 {
						n = len(old) // same size
					}
					write(addr, n, dev)
				default:
					write(addr, 500+rng.Intn(4000), rng.Perm(len(devs))[:1+rng.Intn(len(devs))]...)
				}
				if i%100 == 0 {
					verify()
					for _, d := range devs {
						d.CollectOnce()
					}
				}
			}
			verify()

			// A chunk a read finds corrupt, or loses to a latent sector
			// error, is dropped from its device alone.
			shared := ChunkAddr(60)
			write(shared, 3000, 0, 1, 2)
			if !devs[0].InjectCorruption(shared, 5, false) {
				t.Fatal("corruption not injected")
			}
			devs[1].SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
				return FaultDecision{DropChunk: true}
			}})
			for _, i := range []int{0, 1} {
				if _, _, err := devs[i].ReadCtx(nil, shared); !errors.Is(err, ErrChunkCorrupt) {
					t.Fatalf("device %d: read of a corrupt chunk: %v", i, err)
				}
				delete(want[i], shared)
			}
			devs[1].SetFaultHook(nil)
			verify()

			if layout == LayoutLog {
				// A chunk GC finds corrupt while relocating is dropped like any
				// other.
				var victim ChunkAddr
				for victim = range want[1] {
					break
				}
				if !devs[1].InjectCorruption(victim, 3, false) {
					t.Fatal("corruption not injected")
				}
				// Overwrite its neighbours until its segment is collected.
				for i := 0; devs[1].Has(victim); i++ {
					if i == 10000 {
						t.Fatal("the corrupt chunk's segment was never collected")
					}
					if addr := ChunkAddr(rng.Intn(60)); addr != victim {
						write(addr, 500+rng.Intn(4000), 1)
					}
					devs[1].CollectOnce()
				}
				delete(want[1], victim)
				verify()
			}

			// Fail-stop and the spare that takes the slot drop the device's
			// references; chunks shared with the others stay resident there.
			devs[2].Fail()
			clear(want[2])
			verify()
			devs[2].Replace()
			for a := ChunkAddr(0); a < 40; a++ {
				write(a, 1000+37*int(a), 1, 2)
			}
			verify()
			devs[0].Replace()
			clear(want[0])
			verify()
		})
	}
}

// TestCorruptCopiesSharedChunk: corruption injected into one device's copy of
// a chunk other devices hold — silent or detectable — reaches that copy only.
// The other device's bytes and CRC are untouched and read back.
func TestCorruptCopiesSharedChunk(t *testing.T) {
	for _, silent := range []bool{true, false} {
		t.Run(fmt.Sprintf("silent=%v", silent), func(t *testing.T) {
			arr, err := NewArray(2, testSpec())
			if err != nil {
				t.Fatal(err)
			}
			a, b := arr.Device(0), arr.Device(1)
			data := payload(9, 3000)
			c := NewChunk(data)
			for _, d := range []*Device{a, b} {
				if _, err := d.WriteCtx(nil, 9, c); err != nil {
					t.Fatal(err)
				}
			}
			c.Release()
			if !a.InjectCorruption(9, 100, silent) {
				t.Fatal("corruption not injected")
			}
			b.mu.Lock()
			kept := b.chunks[9].c
			b.mu.Unlock()
			if kept.crc != Checksum(data) || !bytes.Equal(kept.buf, data) {
				t.Fatal("corrupting device a changed device b's chunk")
			}
			if got, _, err := b.ReadCtx(nil, 9); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("device b read %v, bytes equal %v", err, bytes.Equal(got, data))
			}
			got, _, err := a.ReadCtx(nil, 9)
			if silent && (err != nil || bytes.Equal(got, data)) {
				t.Fatalf("silently corrupted copy: err %v, bytes unchanged %v", err, bytes.Equal(got, data))
			}
			if !silent && !errors.Is(err, ErrChunkCorrupt) {
				t.Fatalf("detectably corrupted copy: err %v, want ErrChunkCorrupt", err)
			}
			checkChunks(t, arr)
		})
	}
}

// TestSharedChunkSoak races readers of every replica of shared chunks against
// overwrites, deletes, fail-stops with spares and (log layout) GC. Each read
// returns the right bytes or fails cleanly — the chunk or its device is gone
// — never with a checksum error or wrong bytes: no reader sees a chunk after
// its last reference is dropped (under -race a pooled chunk is poisoned). A
// chunk's bytes name their address and version, so a reader checks whatever
// version it got against the bytes that version must hold.
func TestSharedChunkSoak(t *testing.T) {
	for _, layout := range []Layout{LayoutInPlace, LayoutLog} {
		t.Run(layout.String(), func(t *testing.T) {
			const (
				addrs   = 24
				rounds  = 300
				readers = 3
			)
			a, err := NewArrayLayout(3, logSpec(1<<20), layout, LogConfig{SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			devs := a.devices
			content := func(addr ChunkAddr, version int) []byte {
				b := payload(addr*1000+ChunkAddr(version), 600+(version*131)%3000)
				b[0], b[1] = byte(addr), byte(version)
				return b
			}
			var (
				stop  atomic.Bool
				wg    sync.WaitGroup
				fails = make(chan error, readers+3)
			)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]byte, 4096)
					for !stop.Load() {
						for addr := ChunkAddr(0); addr < addrs; addr++ {
							for _, d := range devs {
								n, _, err := d.ReadInto(nil, addr, dst)
								switch {
								case errors.Is(err, ErrChunkNotFound), errors.Is(err, ErrDeviceFailed):
								case err != nil:
									fails <- fmt.Errorf("chunk %d: %w", addr, err)
									return
								case n < 2 || dst[0] != byte(addr) || !bytes.Equal(dst[:n], content(addr, int(dst[1]))):
									fails <- fmt.Errorf("chunk %d: read %d bytes that no version holds", addr, n)
									return
								}
							}
						}
					}
				}()
			}
			var writers sync.WaitGroup
			mutate := func(seed int64, step func(rng *rand.Rand, round int)) {
				writers.Add(1)
				go func() {
					defer writers.Done()
					rng := rand.New(rand.NewSource(seed))
					for round := 0; round < rounds; round++ {
						step(rng, round)
					}
				}()
			}
			// A failed device refuses writes and deletes; nothing else may.
			refused := func(err error) {
				if err != nil && !errors.Is(err, ErrDeviceFailed) {
					t.Error(err)
				}
			}
			// Writers own disjoint addresses: each keeps its own versions.
			for w := int64(0); w < 2; w++ {
				version := make(map[ChunkAddr]int)
				mutate(w, func(rng *rand.Rand, round int) {
					addr := ChunkAddr(2*rng.Intn(addrs/2) + int(w))
					if rng.Intn(6) == 0 {
						refused(devs[rng.Intn(len(devs))].Delete(addr))
						return
					}
					version[addr] = (version[addr] + 1) % 256
					c := NewChunk(content(addr, version[addr]))
					for _, d := range devs {
						_, err := d.WriteCtx(nil, addr, c)
						refused(err)
					}
					c.Release()
				})
			}
			mutate(7, func(rng *rand.Rand, round int) {
				d := devs[rng.Intn(len(devs))]
				if round%40 == 39 {
					d.Fail()
					d.Replace()
				}
				d.CollectOnce()
			})
			writers.Wait()
			stop.Store(true)
			wg.Wait()
			close(fails)
			for err := range fails {
				t.Error(err)
			}
			checkChunks(t, a)
		})
	}
}
