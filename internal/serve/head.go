package serve

// head.go — reading one HTTP/1.x request head for the connection loop
// (conn.go). The reader keeps only what framing and the handler need: the
// request line, Host, and Connection's close and keep-alive. It refuses,
// with a status for the JSON answer, anything that would carry a body or
// that a strict HTTP/1.1 parser rejects, and it never reads past the empty
// line that ends the head.

import (
	"bufio"
	"bytes"
	"net/http"
)

// requestHead is what the front door keeps of one request head.
type requestHead struct {
	method    string
	target    string // the request-target, as sent
	minor     int    // 1 for HTTP/1.1 (and 1.x), 0 for HTTP/1.0
	host      string
	hasHost   bool
	close     bool // Connection: close
	keepAlive bool // Connection: keep-alive
}

// refusal is a request the front door answers itself, with status and a
// JSON error document, before it closes the connection.
type refusal struct {
	status int
	msg    string
}

func (r *refusal) Error() string { return r.msg }

func badRequest(msg string) *refusal { return &refusal{http.StatusBadRequest, msg} }

// readRequestHead reads one request head from br into h. A protocol error
// is a *refusal; any other error is the connection's (EOF, a deadline, the
// read budget). br must buffer maxHeaderBytes: a line that does not fit is
// a head over the limit. On success br is positioned just past the head.
func readRequestHead(br *bufio.Reader, h *requestHead) error {
	host := h.host // reused when the next request names the same host
	*h = requestHead{}
	used := 0
	line, err := readHeadLine(br, &used)
	if err != nil {
		return err
	}
	if err := parseRequestLine(line, h); err != nil {
		return err
	}
	for {
		line, err := readHeadLine(br, &used)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return badRequest("obsolete header line folding")
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return badRequest("malformed header line")
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		if !validHeaderValue(value) {
			return badRequest("malformed header value")
		}
		switch {
		case bytes.EqualFold(name, []byte("Host")):
			if h.hasHost {
				return badRequest("too many Host headers")
			}
			if !validHost(value) {
				return badRequest("malformed Host header")
			}
			h.hasHost = true
			if string(value) != host {
				host = string(value)
			}
			h.host = host
		case bytes.EqualFold(name, []byte("Connection")):
			for _, tok := range bytes.Split(value, []byte(",")) {
				tok = bytes.Trim(tok, " \t")
				h.close = h.close || bytes.EqualFold(tok, []byte("close"))
				h.keepAlive = h.keepAlive || bytes.EqualFold(tok, []byte("keep-alive"))
			}
		case bytes.EqualFold(name, []byte("Content-Length")):
			if len(value) == 0 || !allDigits(value) {
				return badRequest("malformed Content-Length")
			}
			if len(bytes.TrimLeft(value, "0")) > 0 {
				return &refusal{http.StatusRequestEntityTooLarge, "request bodies are not accepted"}
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return &refusal{http.StatusRequestEntityTooLarge, "request bodies are not accepted"}
		case bytes.EqualFold(name, []byte("Expect")):
			return &refusal{http.StatusExpectationFailed, "Expect is not supported"}
		}
	}
	if h.minor == 1 && !h.hasHost {
		return badRequest("missing Host header")
	}
	return nil
}

// readHeadLine reads one line of the head without its CRLF (or bare LF),
// counting it against maxHeaderBytes.
func readHeadLine(br *bufio.Reader, used *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	*used += len(line)
	if err == bufio.ErrBufferFull || *used > maxHeaderBytes {
		return nil, &refusal{http.StatusRequestHeaderFieldsTooLarge, "request head too large"}
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseRequestLine splits "METHOD SP target SP HTTP/x.y" the way net/http
// does: at the first two spaces.
func parseRequestLine(line []byte, h *requestHead) error {
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || len(target) == 0 {
		return badRequest("malformed request line")
	}
	if !isToken(method) {
		return badRequest("malformed method")
	}
	if len(proto) != len("HTTP/1.1") || !bytes.HasPrefix(proto, []byte("HTTP/")) ||
		!isDigit(proto[5]) || proto[6] != '.' || !isDigit(proto[7]) {
		return badRequest("malformed HTTP version")
	}
	switch {
	case proto[5] != '1':
		return &refusal{http.StatusHTTPVersionNotSupported, "unsupported HTTP version"}
	case proto[7] == '0':
		h.minor = 0
	default:
		h.minor = 1
	}
	switch string(method) { // the common methods without an allocation
	case http.MethodGet:
		h.method = http.MethodGet
	case http.MethodHead:
		h.method = http.MethodHead
	default:
		h.method = string(method)
	}
	h.target = string(target)
	return nil
}

// isToken reports whether s is a non-empty RFC 9110 token.
func isToken(s []byte) bool {
	for _, b := range s {
		if !tokenByte[b] {
			return false
		}
	}
	return len(s) > 0
}

var tokenByte = byteSet("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!#$%&'*+-.^_`|~")

// validHeaderValue refuses control bytes other than horizontal tab, as
// net/textproto does.
func validHeaderValue(v []byte) bool {
	for _, b := range v {
		if (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}

// validHost admits the bytes net/http accepts in a Host header.
func validHost(v []byte) bool {
	for _, b := range v {
		if !hostByte[b] {
			return false
		}
	}
	return true
}

var hostByte = byteSet("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!$%&'()*+,-.:;=[]_~")

func byteSet(members string) (t [256]bool) {
	for i := 0; i < len(members); i++ {
		t[members[i]] = true
	}
	return t
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func allDigits(v []byte) bool {
	for _, b := range v {
		if !isDigit(b) {
			return false
		}
	}
	return true
}
