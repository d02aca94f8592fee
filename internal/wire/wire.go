// Package wire is the one codec for variable-length payloads that cross a
// process boundary or land on disk: checkpoint state files, statistics
// gathered by the MCP, forwarded file operations and checkpoint replies.
//
// A type's layout is one walk, a function that visits each of its fields
// in order with a *Codec. The same walk runs three passes: sizing (count
// the bytes), writing (append into a buffer allocated once at that size)
// and reading. Encode and Decode run them.
//
// Unsigned integers are uvarints and signed ones zigzag varints; a list
// or a byte string starts with its length as a uvarint; a bool is one
// byte, 0 or 1. A sorted set is a list of differences from the previous
// value. Every field is written, so equal values give equal bytes.
//
// Reading checks every length against the bytes left before it
// allocates, so hostile input cannot make it allocate much more than its
// own length, and it accepts only the bytes the writer would produce: a
// varint longer than it needs to be, a bool other than 0 or 1, or
// trailing bytes are errors. Byte strings in a decoded value alias the
// input.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

type mode uint8

const (
	sizing mode = iota
	writing
	reading
)

// Codec runs one pass of a walk. Each method takes a pointer to a field:
// sizing and writing only read it, reading sets it. While reading, the
// first error sticks and empties the input, so every later field reads
// as zero and every later length as 0.
type Codec struct {
	mode mode
	n    int    // sizing: bytes counted
	buf  []byte // writing: the output; reading: the input not yet read
	err  error
}

// Encode returns the encoding of what walk visits.
func Encode(walk func(*Codec)) []byte {
	size := Codec{mode: sizing}
	walk(&size)
	c := Codec{mode: writing, buf: make([]byte, 0, size.n)}
	walk(&c)
	return c.buf
}

// Decode reads b into what walk visits. Bytes left over are an error.
func Decode(b []byte, walk func(*Codec)) error {
	c := Codec{mode: reading, buf: b}
	walk(&c)
	if c.err == nil && len(c.buf) != 0 {
		c.Fail("%d trailing bytes", len(c.buf))
	}
	return c.err
}

// SizeOf returns the length of the encoding of what walk visits.
func SizeOf(walk func(*Codec)) int {
	c := Codec{mode: sizing}
	walk(&c)
	return c.n
}

// Reading reports whether this pass sets the fields it visits.
func (c *Codec) Reading() bool { return c.mode == reading }

// Fail records a reading error; only the first one is kept.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.buf = nil
}

// Magic codes the fixed bytes m, which open a file: reading fails unless
// the input starts with them.
func (c *Codec) Magic(m string) {
	switch c.mode {
	case sizing:
		c.n += len(m)
	case writing:
		c.buf = append(c.buf, m...)
	case reading:
		if len(c.buf) < len(m) || string(c.buf[:len(m)]) != m {
			c.Fail("bad magic, want %q", m)
			return
		}
		c.buf = c.buf[len(m):]
	}
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	switch c.mode {
	case sizing:
		c.n++
	case writing:
		c.buf = append(c.buf, *p)
	case reading:
		if len(c.buf) == 0 {
			c.Fail("truncated")
			return
		}
		*p, c.buf = c.buf[0], c.buf[1:]
	}
}

// Bool codes a bool as one byte, 0 or 1.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if v > 1 {
		c.Fail("bad bool %d", v)
	}
	if c.mode == reading {
		*p = v == 1
	}
}

// Uvarint codes *p as a uvarint in its shortest form.
func (c *Codec) Uvarint(p *uint64) {
	switch c.mode {
	case sizing:
		c.n += (bits.Len64(*p|1) + 6) / 7
	case writing:
		c.buf = binary.AppendUvarint(c.buf, *p)
	case reading:
		v, n := binary.Uvarint(c.buf)
		if n <= 0 {
			c.Fail("truncated or overflowing varint")
			return
		}
		if n > 1 && c.buf[n-1] == 0 {
			c.Fail("varint not in its shortest form")
			return
		}
		*p, c.buf = v, c.buf[n:]
	}
}

// Varint zigzag-encodes *p, so small negative values stay short.
func (c *Codec) Varint(p *int64) {
	u := uint64(*p<<1) ^ uint64(*p>>63)
	c.Uvarint(&u)
	if c.mode == reading {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

// I32 codes *p as a varint; reading, a value outside int32 is an error.
func (c *Codec) I32(p *int32) {
	v := int64(*p)
	c.Varint(&v)
	if v < math.MinInt32 || v > math.MaxInt32 {
		c.Fail("value %d overflows int32", v)
		return
	}
	if c.mode == reading {
		*p = int32(v)
	}
}

// U32 codes *p as a uvarint; reading, a value outside uint32 is an error.
func (c *Codec) U32(p *uint32) {
	v := uint64(*p)
	c.Uvarint(&v)
	if v > math.MaxUint32 {
		c.Fail("value %d overflows uint32", v)
		return
	}
	if c.mode == reading {
		*p = uint32(v)
	}
}

// length codes *n; reading, it also checks that *n elements of at least
// minLen bytes each fit in what is left.
func (c *Codec) length(n *int, minLen int) {
	v := uint64(*n)
	c.Uvarint(&v)
	if c.mode == reading && v > uint64(len(c.buf)/minLen) {
		c.Fail("length %d does not fit in the %d bytes left", v, len(c.buf))
		v = 0
	}
	*n = int(v)
}

// Blob codes a byte string: its length, then its bytes.
func (c *Codec) Blob(p *[]byte) {
	n := len(*p)
	c.length(&n, 1)
	switch c.mode {
	case sizing:
		c.n += n
	case writing:
		c.buf = append(c.buf, *p...)
	case reading:
		if n > 0 {
			*p, c.buf = c.buf[:n:n], c.buf[n:]
		}
	}
}

// Str codes a string as a byte string.
func (c *Codec) Str(p *string) {
	b := []byte(*p)
	c.Blob(&b)
	if c.mode == reading {
		*p = string(b)
	}
}

// List codes a length and then each element of *s with f; reading, it
// allocates the elements first (none for length 0). minLen is the
// shortest encoding of one element.
func List[T any](c *Codec, s *[]T, minLen int, f func(*T)) {
	n := len(*s)
	c.length(&n, minLen)
	if c.mode == reading && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		f(&(*s)[i])
	}
}

// Opt codes a presence bool and then, if present, the value with f.
func Opt[T any](c *Codec, p **T, f func(*T)) {
	present := *p != nil
	c.Bool(&present)
	if c.mode == reading && present {
		*p = new(T)
	}
	if *p != nil {
		f(*p)
	}
}

// Sorted codes an ascending set as differences from the previous value.
// They wrap modulo 2^64, so any slice round-trips; sorted ones stay short.
func (c *Codec) Sorted(s *[]uint64) {
	var prev uint64
	List(c, s, 1, func(v *uint64) {
		d := *v - prev
		c.Uvarint(&d)
		if c.mode == reading {
			*v = prev + d
		}
		prev = *v
	})
}
