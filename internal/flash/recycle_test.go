package flash

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkDevice verifies the recycling invariants under the device lock: the
// spare list within its byte and entry bounds, every resident chunk's CRC
// matching its bytes, `used` the sum of chunk lengths, no buffer both spare
// and resident, and no recycled buffer carrying more than an eighth of slack.
func checkDevice(t *testing.T, d *Device) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	bound := d.spareBound()
	var spareBytes int64
	owner := make(map[*byte]string)
	for _, b := range d.spare {
		spareBytes += int64(cap(b))
		owner[&b[:1][0]] = "spare"
	}
	if spareBytes != d.spareBytes || spareBytes > bound || len(d.spare) > spareMaxBufs {
		t.Fatalf("spare list: %d bufs, %d bytes (counter %d), bound %d bytes / %d bufs",
			len(d.spare), spareBytes, d.spareBytes, bound, spareMaxBufs)
	}
	var used int64
	for addr, c := range d.chunks {
		b := c.buf
		used += int64(len(b))
		if Checksum(b) != c.crc {
			t.Fatalf("chunk %d: stored CRC does not match its bytes", addr)
		}
		if slack := cap(b) - len(b); slack > cap(b)/8 {
			t.Fatalf("chunk %d: %d bytes in a %d-byte buffer", addr, len(b), cap(b))
		}
		if cap(b) == 0 {
			continue
		}
		if prev, dup := owner[&b[:1][0]]; dup {
			t.Fatalf("chunk %d shares its buffer with %s", addr, prev)
		}
		owner[&b[:1][0]] = "a resident chunk"
	}
	if used != d.used {
		t.Fatalf("used = %d, resident chunks sum to %d", d.used, used)
	}
}

// TestDeviceChunkRecycle drives both layouts through fresh writes, same-size
// and resizing overwrites, deletes, segment GC (with a corrupt chunk to drop),
// a fail-stop and a spare, checking contents and the recycling invariants
// throughout.
func TestDeviceChunkRecycle(t *testing.T) {
	for _, layout := range []Layout{LayoutInPlace, LayoutLog} {
		t.Run(layout.String(), func(t *testing.T) {
			spec := logSpec(1 << 20)
			d := NewDeviceLayout(spec, layout, LogConfig{SegmentBytes: 16 << 10})
			rng := rand.New(rand.NewSource(1))
			want := make(map[ChunkAddr][]byte)
			write := func(addr ChunkAddr, n int) {
				t.Helper()
				data := make([]byte, n)
				rng.Read(data)
				if _, err := d.Write(addr, data); err != nil {
					t.Fatalf("write %d (%d bytes): %v", addr, n, err)
				}
				want[addr] = data
			}
			verify := func() {
				t.Helper()
				checkDevice(t, d)
				dst := make([]byte, 8<<10)
				for addr, data := range want {
					n, _, err := d.ReadInto(nil, addr, dst)
					if err != nil || !bytes.Equal(dst[:n], data) {
						t.Fatalf("chunk %d: read back %d bytes, err %v; want its %d bytes", addr, n, err, len(data))
					}
				}
			}

			// Fresh chunks of odd lengths are allocated at exactly that length.
			for a := ChunkAddr(0); a < 40; a++ {
				write(a, 1000+37*int(a))
			}
			d.mu.Lock()
			for addr, c := range d.chunks {
				if b := c.buf; cap(b) != len(b) {
					t.Errorf("fresh chunk %d: len %d in a %d-byte allocation", addr, len(b), cap(b))
				}
			}
			d.mu.Unlock()
			verify()

			// A same-size overwrite keeps the chunk's buffer.
			d.mu.Lock()
			before := &d.chunks[7].buf[0]
			d.mu.Unlock()
			write(7, len(want[7]))
			d.mu.Lock()
			if &d.chunks[7].buf[0] != before {
				t.Error("same-size overwrite did not reuse the chunk's buffer")
			}
			d.mu.Unlock()
			verify()

			// Churn: resizing overwrites, deletes and new chunks, with the log
			// layout collecting as it goes.
			for i := 0; i < 2000; i++ {
				addr := ChunkAddr(rng.Intn(60))
				switch rng.Intn(4) {
				case 0:
					if err := d.Delete(addr); err != nil {
						t.Fatal(err)
					}
					delete(want, addr)
				default:
					write(addr, 500+rng.Intn(4000))
				}
				if i%100 == 0 {
					verify()
					d.CollectOnce()
				}
			}
			verify()

			if layout == LayoutLog {
				// A chunk GC finds corrupt while relocating is dropped and its
				// buffer recycled like any other.
				var victim ChunkAddr
				for victim = range want {
					break
				}
				if !d.InjectCorruption(victim, 3, false) {
					t.Fatal("corruption not injected")
				}
				// Overwrite its neighbours until its segment is collected.
				for i := 0; d.Has(victim); i++ {
					if i == 10000 {
						t.Fatal("the corrupt chunk's segment was never collected")
					}
					if addr := ChunkAddr(rng.Intn(60)); addr != victim {
						write(addr, 500+rng.Intn(4000))
					}
					d.CollectOnce()
				}
				delete(want, victim)
				verify()
			}

			// Fail-stop keeps what the spare list has room for; the spare that
			// takes the slot writes into those buffers.
			d.Fail()
			clear(want)
			verify()
			d.Replace()
			for a := ChunkAddr(0); a < 40; a++ {
				write(a, 1000+37*int(a))
			}
			verify()
		})
	}
}
