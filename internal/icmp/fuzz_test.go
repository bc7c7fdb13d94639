package icmp

import (
	"bytes"
	"errors"
	"testing"
)

// TestParseMalformedTable drives both parsers through the malformed-input
// classes the fault injector produces: truncated headers, bad checksums,
// oversized payloads, and unknown types. Every case must be rejected with
// the right error class — never a panic, never a silently wrong message.
func TestParseMalformedTable(t *testing.T) {
	valid, err := (&Echo{ID: 0x1234, Seq: 7, Payload: []byte("probe")}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x01 // payload bit: header still sane, checksum wrong
	badType := append([]byte(nil), valid...)
	badType[0] = 11 // time exceeded: a type the prober never parses
	badCode := append([]byte(nil), valid...)
	badCode[1] = 5
	huge := make([]byte, headerLen+MaxPayload+1)

	cases := []struct {
		name    string
		in      []byte
		wantErr error // nil: any non-nil error accepted
	}{
		{"empty", nil, ErrTruncated},
		{"truncated header", valid[:headerLen-1], ErrTruncated},
		{"single byte", []byte{TypeEchoRequest}, ErrTruncated},
		{"bit flip", flipped, ErrChecksum},
		{"zeroed checksum", append(append([]byte(nil), valid[:2]...), append([]byte{0, 0}, valid[4:]...)...), ErrChecksum},
		{"oversized payload", huge, ErrPayloadSize},
		{"unknown type", badType, nil},
		{"nonzero code", badCode, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ParseEchoInto(new(Echo), tc.in)
			if err == nil {
				t.Fatalf("ParseEchoInto accepted %q input", tc.name)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("ParseEchoInto error = %v, want %v", err, tc.wantErr)
			}
		})
	}

	un, err := (&Unreachable{Code: CodeAdminProhibited, Original: valid}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	unFlipped := append([]byte(nil), un...)
	unFlipped[10] ^= 0x80
	unCases := []struct {
		name    string
		in      []byte
		wantErr error
	}{
		{"truncated", un[:5], ErrTruncated},
		{"bit flip", unFlipped, ErrChecksum},
		{"wrong type", valid, nil}, // an echo is not an unreachable
	}
	for _, tc := range unCases {
		t.Run("unreachable "+tc.name, func(t *testing.T) {
			err := ParseUnreachableInto(new(Unreachable), tc.in)
			if err == nil {
				t.Fatalf("ParseUnreachableInto accepted %q input", tc.name)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("ParseUnreachableInto error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// FuzzParse throws arbitrary bytes at both parsers and checks the parser
// invariants: no panics, accepted messages always checksum to zero, and
// accepted messages re-marshal to the same wire bytes outside the checksum
// field. (The checksum field itself is excluded: RFC 1071 one's-complement
// arithmetic has two zero representations, so 0xffff in the input can
// validate yet re-marshal as 0x0000.) Run with
// `go test -fuzz=FuzzParse ./internal/icmp`.
func FuzzParse(f *testing.F) {
	seed, _ := (&Echo{ID: 1, Seq: 2, Payload: []byte("x")}).MarshalAppend(nil)
	f.Add(seed)
	reply, _ := (&Echo{Reply: true, ID: 0xffff, Seq: 0}).MarshalAppend(nil)
	f.Add(reply)
	un, _ := (&Unreachable{Code: CodeHostUnreachable, Original: seed}).MarshalAppend(nil)
	f.Add(un)
	f.Add([]byte{})
	f.Add([]byte{TypeEchoRequest, 0, 0, 0})
	f.Add(make([]byte, headerLen+MaxPayload+8))

	// sameOutsideChecksum compares wire bytes ignoring the checksum field.
	sameOutsideChecksum := func(a, b []byte) bool {
		return len(a) == len(b) &&
			bytes.Equal(a[:2], b[:2]) && bytes.Equal(a[4:], b[4:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var e Echo
		if err := ParseEchoInto(&e, data); err == nil {
			if Checksum(data) != 0 {
				t.Fatalf("accepted echo with nonzero checksum: %x", data)
			}
			out, merr := e.MarshalAppend(nil)
			if merr != nil {
				t.Fatalf("parsed echo failed to re-marshal: %v", merr)
			}
			if !sameOutsideChecksum(out, data) {
				t.Fatalf("echo round-trip changed bytes: %x -> %x", data, out)
			}
			if rerr := ParseEchoInto(new(Echo), out); rerr != nil {
				t.Fatalf("re-marshalled echo rejected: %v", rerr)
			}
		}
		var u Unreachable
		if err := ParseUnreachableInto(&u, data); err == nil {
			if Checksum(data) != 0 {
				t.Fatalf("accepted unreachable with nonzero checksum: %x", data)
			}
			out, merr := u.MarshalAppend(nil)
			if merr != nil {
				t.Fatalf("parsed unreachable failed to re-marshal: %v", merr)
			}
			if !sameOutsideChecksum(out, data) {
				t.Fatalf("unreachable round-trip changed bytes: %x -> %x", data, out)
			}
			if rerr := ParseUnreachableInto(new(Unreachable), out); rerr != nil {
				t.Fatalf("re-marshalled unreachable rejected: %v", rerr)
			}
		}
		// TypeOf never panics and agrees with the first byte.
		if ty := TypeOf(data); len(data) > 0 && ty != int(data[0]) {
			t.Fatalf("TypeOf = %d, want %d", ty, data[0])
		}
	})
}
