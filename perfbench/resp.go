package main

import (
	"bytes"
	"errors"
)

// replyView is one scanned RESP reply. bulk aliases the read buffer and is
// valid until the buffer is reused; for arrays n is the element count.
type replyView struct {
	kind byte // '+', '-', ':', '$', '*'
	bulk []byte
	n    int64
}

var errMalformed = errors.New("malformed RESP reply")

// scanReply parses the reply at the start of b without allocating. It
// returns how many bytes the reply spans, or 0 when b holds only part of it.
// Array elements are validated and skipped, not returned: the generator
// checks element counts and error replies, nothing deeper.
func scanReply(b []byte) (int, replyView, error) {
	return scanDepth(b, 0)
}

func scanDepth(b []byte, depth int) (int, replyView, error) {
	if depth > 8 {
		return 0, replyView{}, errMalformed
	}
	eol := bytes.IndexByte(b, '\n')
	if eol < 0 {
		return 0, replyView{}, nil
	}
	if eol < 1 || b[eol-1] != '\r' {
		return 0, replyView{}, errMalformed
	}
	line := b[1 : eol-1]
	head := eol + 1
	v := replyView{kind: b[0]}
	switch b[0] {
	case '+', '-':
		v.bulk = line
		return head, v, nil
	case ':':
		n, ok := atoi(line)
		if !ok {
			return 0, v, errMalformed
		}
		v.n = n
		return head, v, nil
	case '$':
		n, ok := atoi(line)
		if !ok || n < -1 {
			return 0, v, errMalformed
		}
		v.n = n
		if n < 0 {
			return head, v, nil
		}
		end := head + int(n) + 2
		if len(b) < end {
			return 0, v, nil
		}
		if b[end-2] != '\r' || b[end-1] != '\n' {
			return 0, v, errMalformed
		}
		v.bulk = b[head : end-2]
		return end, v, nil
	case '*':
		n, ok := atoi(line)
		if !ok || n < -1 {
			return 0, v, errMalformed
		}
		v.n = n
		off := head
		for i := int64(0); i < n; i++ {
			m, e, err := scanDepth(b[off:], depth+1)
			if err != nil || m == 0 {
				return 0, v, err
			}
			if e.kind == '-' {
				v.kind = '-'
				v.bulk = e.bulk
			}
			off += m
		}
		return off, v, nil
	}
	return 0, v, errMalformed
}

func atoi(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
