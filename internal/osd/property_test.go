package osd

import (
	"errors"
	"testing"
	"testing/quick"
)

// Property: any well-formed control message survives an encode→decode round
// trip unchanged.
func TestPropertyControlMessageRoundTrip(t *testing.T) {
	setID := func(pid, oidV uint64, classRaw uint8) bool {
		cmd := SetIDCommand{
			Object: ObjectID{PID: pid, OID: oidV},
			Class:  Class(classRaw % NumClasses),
		}
		decoded, err := DecodeControlMessage(cmd.Encode())
		if err != nil {
			return false
		}
		got, ok := decoded.(SetIDCommand)
		return ok && got == cmd
	}
	if err := quick.Check(setID, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	query := func(pid, oidV uint64, write bool, offset, size int64) bool {
		op := OpRead
		if write {
			op = OpWrite
		}
		if offset < 0 {
			offset = -offset
		}
		if size < 0 {
			size = -size
		}
		cmd := QueryCommand{
			Object: ObjectID{PID: pid, OID: oidV},
			Op:     op,
			Offset: offset,
			Size:   size,
		}
		decoded, err := DecodeControlMessage(cmd.Encode())
		if err != nil {
			return false
		}
		got, ok := decoded.(QueryCommand)
		return ok && got == cmd
	}
	if err := quick.Check(query, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary bytes never panic the decoder and either parse into a
// valid command or return ErrBadMessage.
func TestPropertyDecodeArbitraryBytes(t *testing.T) {
	f := func(raw []byte) bool {
		msg, err := DecodeControlMessage(raw)
		if err != nil {
			return msg == nil
		}
		switch msg.(type) {
		case SetIDCommand, QueryCommand, TuneCommand:
			return true
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeControlMessage: whatever the decoder accepts, its Encode decodes
// back to the same command; whatever it rejects, it rejects as ErrBadMessage.
//
//	go test -run xxx -fuzz 'FuzzDecodeControlMessage$' -fuzztime=30s ./internal/osd/
func FuzzDecodeControlMessage(f *testing.F) {
	for _, seed := range []string{
		"#SETID#0x10000#0x10010#2",
		"#QUERY#0x10000#0x10010#W#4096#65536",
		"#TUNE#policy.read.degraded.hedge.delay#0.0002",
		"#TUNE#k#NaN",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := DecodeControlMessage(raw)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("DecodeControlMessage(%q) err = %v, want ErrBadMessage", raw, err)
			}
			return
		}
		again, err := DecodeControlMessage(msg.Encode())
		if err != nil {
			t.Fatalf("%q decoded to %+v, whose encoding %q fails: %v", raw, msg, msg.Encode(), err)
		}
		if again != msg {
			t.Fatalf("%q decoded to %+v, re-decoded as %+v", raw, msg, again)
		}
	})
}
