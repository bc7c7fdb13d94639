// Package ipv4 implements the IPv4 header (RFC 791): marshalling and
// parsing with header checksum validation, plus the encapsulation helpers
// the prober and the simulated network use so that every probe travels as
// a full IPv4(ICMP) packet — exercising the same header construction and
// validation a live prober would.
package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ProtoICMP is the one protocol number the prober sends and accepts.
const ProtoICMP = 1

// HeaderLen is the length of a header without options; options are not
// used by the prober and are rejected on parse for simplicity and safety.
const HeaderLen = 20

// DefaultTTL is the initial TTL the prober stamps on probes.
const DefaultTTL = 64

// MaxPacket bounds accepted packet sizes (standard Ethernet MTU).
const MaxPacket = 1500

// Common errors.
var (
	ErrTruncated = errors.New("ipv4: packet truncated")
	ErrVersion   = errors.New("ipv4: not an IPv4 packet")
	ErrChecksum  = errors.New("ipv4: bad header checksum")
	ErrOptions   = errors.New("ipv4: options not supported")
	ErrLength    = errors.New("ipv4: inconsistent length")
)

// Addr is an IPv4 address as four octets.
type Addr [4]byte

// String renders the dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Header is an IPv4 header without options.
type Header struct {
	TOS      byte
	ID       uint16
	DontFrag bool
	TTL      byte
	Protocol byte
	Src, Dst Addr
	// TotalLen is filled on parse; MarshalAppend computes it from the payload.
	TotalLen uint16
}

// MarshalAppend appends the encoded header followed by the payload to dst
// and returns the extended slice, computing lengths and the header
// checksum. Passing a scratch slice with spare capacity makes encoding
// allocation-free; the payload may not alias the spare capacity of dst.
//
//lint:hotpath: per-packet encode path shares the probe 0 allocs/op budget
func (h *Header) MarshalAppend(dst []byte, payload []byte) ([]byte, error) {
	total := HeaderLen + len(payload)
	if total > MaxPacket {
		return dst, fmt.Errorf("%w: %d bytes", ErrLength, total)
	}
	off := len(dst)
	var hdr [HeaderLen]byte
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	b := dst[off:]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	if h.DontFrag {
		b[6] = 0x40
	}
	ttl := h.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	b[8] = ttl
	b[9] = h.Protocol
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:12], headerChecksum(b[:HeaderLen]))
	return dst, nil
}

// ParseHeader decodes and validates a packet into the caller's header,
// returning a view of the payload (not copied), without allocating.
//
//lint:hotpath: per-packet decode path shares the probe 0 allocs/op budget
//lint:aliases return: the returned payload is a view into b, valid only while the caller's buffer is
func ParseHeader(h *Header, b []byte) ([]byte, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrVersion, b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl != HeaderLen {
		return nil, fmt.Errorf("%w: IHL %d", ErrOptions, ihl)
	}
	if headerChecksum(b[:HeaderLen]) != 0 {
		return nil, ErrChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < HeaderLen || total > len(b) {
		return nil, fmt.Errorf("%w: total %d of %d", ErrLength, total, len(b))
	}
	*h = Header{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		DontFrag: b[6]&0x40 != 0,
		TTL:      b[8],
		Protocol: b[9],
		TotalLen: uint16(total),
	}
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return b[HeaderLen:total], nil
}

// headerChecksum is the RFC 1071 checksum over the header; a valid header
// (including its checksum field) sums to zero.
func headerChecksum(b []byte) uint16 {
	// Every caller passes exactly the 20-byte option-less header, so the
	// ones-complement sum unrolls to five word loads; folding at the end is
	// bit-identical to summing 16-bit words (the sum is commutative and
	// associative, and a uint64 cannot overflow on five 32-bit terms).
	_ = b[HeaderLen-1]
	sum := uint64(binary.BigEndian.Uint32(b)) +
		uint64(binary.BigEndian.Uint32(b[4:8])) +
		uint64(binary.BigEndian.Uint32(b[8:12])) +
		uint64(binary.BigEndian.Uint32(b[12:16])) +
		uint64(binary.BigEndian.Uint32(b[16:20]))
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
