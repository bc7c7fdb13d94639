package icmp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEchoRoundTrip(t *testing.T) {
	e := &Echo{ID: 0x1234, Seq: 42, Payload: []byte("trinocular-probe")}
	b, err := e.MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Echo
	if err := ParseEchoInto(&got, b); err != nil {
		t.Fatal(err)
	}
	if got.Reply != false || got.ID != 0x1234 || got.Seq != 42 || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestEchoReplyRoundTrip(t *testing.T) {
	req := &Echo{ID: 7, Seq: 9, Payload: []byte{1, 2, 3}}
	rep := &Echo{Reply: true, ID: req.ID, Seq: req.Seq, Payload: req.Payload}
	b, err := rep.MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	if TypeOf(b) != TypeEchoReply {
		t.Fatalf("TypeOf = %d", TypeOf(b))
	}
	var got Echo
	if err := ParseEchoInto(&got, b); err != nil {
		t.Fatal(err)
	}
	if !got.Matches(7, 9) {
		t.Fatal("reply should match its probe")
	}
	if got.Matches(7, 10) || got.Matches(8, 9) {
		t.Fatal("reply should not match other probes")
	}
	if req2 := (&Echo{ID: 7, Seq: 9}); req2.Matches(7, 9) {
		t.Fatal("requests never match (not a reply)")
	}
}

func TestParseEchoErrors(t *testing.T) {
	var got Echo
	if err := ParseEchoInto(&got, []byte{8, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	e := &Echo{ID: 1, Seq: 2}
	b, _ := e.MarshalAppend(nil)
	b[4] ^= 0xff // corrupt ID
	if err := ParseEchoInto(&got, b); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted: %v", err)
	}
	// Wrong type.
	u := &Unreachable{Code: CodeHostUnreachable}
	ub, _ := u.MarshalAppend(nil)
	if err := ParseEchoInto(&got, ub); err == nil {
		t.Fatal("unreachable parsed as echo")
	}
	// Non-zero code.
	b2, _ := (&Echo{}).MarshalAppend(nil)
	b2[1] = 5
	// Recompute checksum so only the code is wrong.
	b2[2], b2[3] = 0, 0
	ck := Checksum(b2)
	b2[2], b2[3] = byte(ck>>8), byte(ck)
	if err := ParseEchoInto(&got, b2); err == nil {
		t.Fatal("non-zero code should fail")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	e := &Echo{Payload: make([]byte, MaxPayload+1)}
	if _, err := e.MarshalAppend(nil); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("oversize marshal: %v", err)
	}
	huge := make([]byte, 8+MaxPayload+1)
	huge[0] = TypeEchoRequest
	if err := ParseEchoInto(new(Echo), huge); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("oversize parse: %v", err)
	}
}

func TestUnreachableRoundTrip(t *testing.T) {
	orig, _ := (&Echo{ID: 3, Seq: 4}).MarshalAppend(nil)
	u := &Unreachable{Code: CodeHostUnreachable, Original: orig}
	b, err := u.MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Unreachable
	if err := ParseUnreachableInto(&got, b); err != nil {
		t.Fatal(err)
	}
	if got.Code != CodeHostUnreachable || !bytes.Equal(got.Original, orig) {
		t.Fatalf("unreachable round trip = %+v", got)
	}
	// The quoted original should parse back as the probe.
	var inner Echo
	if err := ParseEchoInto(&inner, got.Original); err != nil {
		t.Fatal(err)
	}
	if inner.ID != 3 || inner.Seq != 4 {
		t.Fatalf("inner = %+v", inner)
	}
}

func TestParseUnreachableErrors(t *testing.T) {
	var got Unreachable
	if err := ParseUnreachableInto(&got, []byte{3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	b, _ := (&Unreachable{Code: 1}).MarshalAppend(nil)
	b[1] ^= 0xff
	if err := ParseUnreachableInto(&got, b); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt: %v", err)
	}
	eb, _ := (&Echo{}).MarshalAppend(nil)
	if err := ParseUnreachableInto(&got, eb); err == nil {
		t.Fatal("echo parsed as unreachable")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data: checksum of {0x00,0x01,0xf2,0x03,0xf4,0xf5,0xf6,0xf7}
	// one's complement sum is 0xddf2, checksum is ^0xddf2 = 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd-length input pads with zero.
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Fatalf("odd checksum = %#04x", got)
	}
}

func TestChecksumSelfVerifyingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := &Echo{
			Reply:   r.Intn(2) == 0,
			ID:      uint16(r.Uint32()),
			Seq:     uint16(r.Uint32()),
			Payload: make([]byte, r.Intn(64)),
		}
		r.Read(e.Payload)
		b, err := e.MarshalAppend(nil)
		if err != nil {
			return false
		}
		// A packet with an embedded valid checksum sums to zero.
		if Checksum(b) != 0 {
			return false
		}
		var got Echo
		if ParseEchoInto(&got, b) != nil {
			return false
		}
		return got.ID == e.ID && got.Seq == e.Seq && got.Reply == e.Reply && bytes.Equal(got.Payload, e.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipDetectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := &Echo{ID: uint16(r.Uint32()), Seq: uint16(r.Uint32()), Payload: make([]byte, 1+r.Intn(32))}
		r.Read(e.Payload)
		b, err := e.MarshalAppend(nil)
		if err != nil {
			return false
		}
		// Flip one random bit anywhere except the type byte (type changes
		// are rejected for a different reason).
		pos := 1 + r.Intn(len(b)-1)
		bit := byte(1) << uint(r.Intn(8))
		b[pos] ^= bit
		return ParseEchoInto(new(Echo), b) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeOf(t *testing.T) {
	if TypeOf(nil) != -1 {
		t.Fatal("TypeOf(nil)")
	}
	if TypeOf([]byte{11}) != 11 {
		t.Fatal("TypeOf time-exceeded")
	}
}

// BenchmarkEchoMarshal times the encode the delivery path runs: append into
// a reused scratch.
func BenchmarkEchoMarshal(b *testing.B) {
	e := &Echo{ID: 1, Seq: 2, Payload: []byte("trinocular-probe")}
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if scratch, err = e.MarshalAppend(scratch[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEchoParse times the decode the delivery path runs: parse into a
// caller-owned Echo whose payload aliases the buffer.
func BenchmarkEchoParse(b *testing.B) {
	e := &Echo{ID: 1, Seq: 2, Payload: []byte("trinocular-probe")}
	buf, _ := e.MarshalAppend(nil)
	var got Echo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseEchoInto(&got, buf); err != nil {
			b.Fatal(err)
		}
	}
}
