package osd

import (
	"errors"
	"testing"
)

func TestWellKnownIDs(t *testing.T) {
	ctl := ControlID()
	if ctl.PID != FirstPID || ctl.OID != ControlOID {
		t.Fatalf("control object = %v", ctl)
	}
	if ControlOID != 0x10004 {
		t.Fatalf("paper reserves OID 0x10004, got %#x", ControlOID)
	}
	if SuperBlockOID != 0x10000 || DeviceTableOID != 0x10001 || RootDirectoryOID != 0x10002 {
		t.Fatal("exofs metadata reservations do not match Table I")
	}
	if FirstUserOID <= ControlOID {
		t.Fatal("user OIDs must not collide with reservations")
	}
}

func TestObjectIDString(t *testing.T) {
	id := ObjectID{PID: 0x10000, OID: 0x10010}
	if got := id.String(); got != "0x10000:0x10010" {
		t.Fatalf("String = %q", got)
	}
}

func TestClassProperties(t *testing.T) {
	// The paper orders classes by importance: 0 strongest, 3 weakest.
	order := []Class{ClassMetadata, ClassDirty, ClassHotClean, ClassColdClean}
	for i, c := range order {
		if int(c) != i {
			t.Fatalf("class %v should have ID %d", c, i)
		}
		if !c.Valid() {
			t.Fatalf("class %v should be valid", c)
		}
	}
	if Class(4).Valid() || Class(-1).Valid() {
		t.Fatal("out-of-range class validated")
	}
	if ClassMetadata.String() != "metadata" || ClassColdClean.String() != "cold-clean" {
		t.Fatal("unexpected class names")
	}
}

func TestSenseCodeTable(t *testing.T) {
	// Table III values.
	tests := []struct {
		code SenseCode
		val  int
	}{
		{SenseOK, 0},
		{SenseFailure, -1},
		{SenseCorrupted, 0x63},
		{SenseCacheFull, 0x64},
		{SenseRecoveryStarts, 0x65},
		{SenseRecoveryEnds, 0x66},
		{SenseRedundancyFull, 0x67},
	}
	for _, tc := range tests {
		if int(tc.code) != tc.val {
			t.Errorf("%v = %#x, want %#x", tc.code, int(tc.code), tc.val)
		}
		if tc.code.String() == "" {
			t.Errorf("%v has empty description", tc.code)
		}
	}
	if SenseCode(0x99).String() == "" {
		t.Fatal("unknown sense code should stringify")
	}
}

func TestSetIDRoundTrip(t *testing.T) {
	cmd := SetIDCommand{Object: ObjectID{PID: 0x10000, OID: 0x10234}, Class: ClassHotClean}
	raw := cmd.Encode()
	if string(raw) != "#SETID#0x10000#0x10234#2" {
		t.Fatalf("Encode = %q", raw)
	}
	decoded, err := DecodeControlMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(SetIDCommand)
	if !ok {
		t.Fatalf("decoded %T, want SetIDCommand", decoded)
	}
	if got != cmd {
		t.Fatalf("round trip %+v != %+v", got, cmd)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	cmd := QueryCommand{
		Object: ObjectID{PID: 0x10000, OID: 0x10020},
		Op:     OpRead,
		Offset: 4096,
		Size:   65536,
	}
	raw := cmd.Encode()
	if string(raw) != "#QUERY#0x10000#0x10020#R#4096#65536" {
		t.Fatalf("Encode = %q", raw)
	}
	decoded, err := DecodeControlMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(QueryCommand)
	if !ok {
		t.Fatalf("decoded %T, want QueryCommand", decoded)
	}
	if got != cmd {
		t.Fatalf("round trip %+v != %+v", got, cmd)
	}
}

func TestQueryWriteOp(t *testing.T) {
	cmd := QueryCommand{Object: ObjectID{PID: FirstPID, OID: FirstUserOID}, Op: OpWrite, Size: 10}
	decoded, err := DecodeControlMessage(cmd.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.(QueryCommand).Op != OpWrite {
		t.Fatal("write op lost in round trip")
	}
}

func TestDecodeMalformedMessages(t *testing.T) {
	bad := []string{
		"",
		"#NOPE#1#2#3",
		"#SETID#0x1#0x2",        // too few fields
		"#SETID#0x1#0x2#3#4",    // too many fields
		"#SETID#zz#0x2#1",       // bad pid
		"#SETID#0x1#zz#1",       // bad oid
		"#SETID#0x1#0x2#9",      // class out of range
		"#SETID#0x1#0x2#x",      // non-numeric class
		"#QUERY#0x1#0x2#R#0",    // too few fields
		"#QUERY#0x1#0x2#X#0#1",  // bad op
		"#QUERY#0x1#0x2#R#-1#1", // negative offset
		"#QUERY#0x1#0x2#R#0#-2", // negative size
		"#QUERY#0x1#0x2#RW#0#1", // multi-char op
		"#TUNE#k",               // too few fields
		"#TUNE##1",              // empty key
		"#TUNE#k#x",             // non-numeric value
		"#TUNE#k#NaN",           // not a number
		"#TUNE#k#Inf",           // infinite
		"#TUNE#k#-Inf",          // infinite
		"#TUNE#k#1e400",         // overflows float64
	}
	for _, s := range bad {
		if _, err := DecodeControlMessage([]byte(s)); !errors.Is(err, ErrBadMessage) {
			t.Errorf("DecodeControlMessage(%q) err = %v, want ErrBadMessage", s, err)
		}
	}
}

func TestOpTypeValid(t *testing.T) {
	if !OpRead.Valid() || !OpWrite.Valid() || OpType('Z').Valid() {
		t.Fatal("OpType validity wrong")
	}
}
