package ipv4

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	h := &Header{
		TOS:      0,
		ID:       0x1234,
		DontFrag: true,
		TTL:      64,
		Protocol: ProtoICMP,
		Src:      Addr{192, 0, 2, 1},
		Dst:      Addr{10, 9, 8, 7},
	}
	payload := []byte("icmp goes here")
	pkt, err := h.MarshalAppend(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	pl, err := ParseHeader(&got, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != h.ID || got.TTL != 64 || got.Protocol != ProtoICMP ||
		got.Src != h.Src || got.Dst != h.Dst || !got.DontFrag {
		t.Fatalf("header = %+v", got)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatalf("payload = %q", pl)
	}
	if int(got.TotalLen) != HeaderLen+len(payload) {
		t.Fatalf("total = %d", got.TotalLen)
	}
}

func TestMarshalDefaultTTL(t *testing.T) {
	h := &Header{Protocol: ProtoICMP}
	pkt, err := h.MarshalAppend(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	if _, err := ParseHeader(&got, pkt); err != nil {
		t.Fatal(err)
	}
	if got.TTL != DefaultTTL {
		t.Fatalf("TTL = %d", got.TTL)
	}
}

func TestParseErrors(t *testing.T) {
	var h Header
	if _, err := ParseHeader(&h, []byte{0x45, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	pkt, _ := (&Header{Protocol: 1}).MarshalAppend(nil, []byte("x"))
	bad := append([]byte(nil), pkt...)
	bad[0] = 0x65 // version 6
	if _, err := ParseHeader(&h, bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: %v", err)
	}
	bad = append([]byte(nil), pkt...)
	bad[0] = 0x46 // IHL 6 (options)
	if _, err := ParseHeader(&h, bad); !errors.Is(err, ErrOptions) {
		t.Fatalf("options: %v", err)
	}
	bad = append([]byte(nil), pkt...)
	bad[16] ^= 0xff // corrupt dst
	if _, err := ParseHeader(&h, bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum: %v", err)
	}
	// Total length beyond the buffer.
	bad = append([]byte(nil), pkt...)
	bad[2], bad[3] = 0xff, 0xff
	bad[10], bad[11] = 0, 0
	cksum := headerChecksum(bad[:HeaderLen])
	bad[10], bad[11] = byte(cksum>>8), byte(cksum)
	if _, err := ParseHeader(&h, bad); !errors.Is(err, ErrLength) {
		t.Fatalf("length: %v", err)
	}
}

func TestMarshalTooBig(t *testing.T) {
	h := &Header{Protocol: ProtoICMP}
	if _, err := h.MarshalAppend(nil, make([]byte, MaxPacket)); !errors.Is(err, ErrLength) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr{1, 9, 21, 7}
	if a.String() != "1.9.21.7" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestHeaderChecksumSelfVerifying(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := &Header{
			TOS:      byte(r.Intn(256)),
			ID:       uint16(r.Uint32()),
			DontFrag: r.Intn(2) == 0,
			TTL:      byte(1 + r.Intn(255)),
			Protocol: byte(r.Intn(256)),
		}
		r.Read(h.Src[:])
		r.Read(h.Dst[:])
		payload := make([]byte, r.Intn(100))
		r.Read(payload)
		pkt, err := h.MarshalAppend(nil, payload)
		if err != nil {
			return false
		}
		var got Header
		pl, err := ParseHeader(&got, pkt)
		if err != nil {
			return false
		}
		return got.Src == h.Src && got.Dst == h.Dst && got.ID == h.ID && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipsDetected(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := &Header{TTL: 64, Protocol: ProtoICMP, Src: Addr{1, 2, 3, 4}, Dst: Addr{5, 6, 7, 8}}
		pkt, err := h.MarshalAppend(nil, []byte("payload"))
		if err != nil {
			return false
		}
		// Flip a bit in the address or ID fields (bytes 4..5, 12..19);
		// the header checksum must catch it.
		positions := []int{4, 5, 12, 13, 14, 15, 16, 17, 18, 19}
		pos := positions[r.Intn(len(positions))]
		pkt[pos] ^= byte(1) << uint(r.Intn(8))
		_, err = ParseHeader(new(Header), pkt)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMarshal times the encode the delivery path runs: append into a
// reused scratch.
func BenchmarkMarshal(b *testing.B) {
	h := &Header{TTL: 64, Protocol: ProtoICMP, Src: Addr{1, 2, 3, 4}, Dst: Addr{5, 6, 7, 8}}
	payload := []byte("trinocular-probe")
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if scratch, err = h.MarshalAppend(scratch[:0], payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse times the decode the delivery path runs: parse into a
// caller-owned header, the payload a view of the packet.
func BenchmarkParse(b *testing.B) {
	h := &Header{TTL: 64, Protocol: ProtoICMP, Src: Addr{1, 2, 3, 4}, Dst: Addr{5, 6, 7, 8}}
	pkt, _ := h.MarshalAppend(nil, []byte("trinocular-probe"))
	var got Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseHeader(&got, pkt); err != nil {
			b.Fatal(err)
		}
	}
}
