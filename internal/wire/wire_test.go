package wire

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// inner is a nested record, coded through Opt and List.
type inner struct {
	A int32
	B []byte
}

func (in *inner) walk(c *Codec) {
	c.I32(&in.A)
	c.Blob(&in.B)
}

// sample visits every primitive and combinator of the codec once.
type sample struct {
	U8     uint8
	B      bool
	U      uint64
	V      int64
	I      int32
	W      uint32
	Blob   []byte
	S      string
	L      []int64
	O      *inner
	Inners []inner
	Set    []uint64
}

var minInner = SizeOf((&inner{}).walk)

func (s *sample) walk(c *Codec) {
	c.Magic("WIRE")
	c.U8(&s.U8)
	c.Bool(&s.B)
	c.Uvarint(&s.U)
	c.Varint(&s.V)
	c.I32(&s.I)
	c.U32(&s.W)
	c.Blob(&s.Blob)
	c.Str(&s.S)
	List(c, &s.L, 1, c.Varint)
	Opt(c, &s.O, func(in *inner) { in.walk(c) })
	List(c, &s.Inners, minInner, func(in *inner) { in.walk(c) })
	c.Sorted(&s.Set)
}

// samples are values whose empty slices are nil, as Decode leaves them.
func samples() []sample {
	return []sample{
		{},
		{
			U8: 0xff, B: true, U: math.MaxUint64, V: math.MinInt64,
			I: math.MinInt32, W: math.MaxUint32,
			Blob: []byte{0, 1, 2}, S: "graphite",
			L:      []int64{-1, 0, 1, math.MaxInt64},
			O:      &inner{A: math.MaxInt32, B: []byte("x")},
			Inners: []inner{{A: -7}, {A: 300, B: bytes.Repeat([]byte{9}, 200)}},
			Set:    []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64},
		},
		{V: -1, I: -1, O: &inner{}, Set: []uint64{5, 3}}, // an unsorted "set" still round-trips
	}
}

func TestRoundTrip(t *testing.T) {
	for i, want := range samples() {
		b := Encode(want.walk)
		var got sample
		if err := Decode(b, got.walk); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sample %d: decoded\n  %+v\nwant\n  %+v", i, got, want)
		}
		if again := Encode(got.walk); !bytes.Equal(again, b) {
			t.Errorf("sample %d: re-encoding changed the bytes", i)
		}
	}
}

func TestSizeOfIsEncodedLength(t *testing.T) {
	for i, s := range samples() {
		b := Encode(s.walk)
		if n := SizeOf(s.walk); n != len(b) || cap(b) != len(b) {
			t.Errorf("sample %d: SizeOf %d, encoding %d bytes in a buffer of %d", i, n, len(b), cap(b))
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, math.MaxUint64} {
		if n, want := SizeOf(func(c *Codec) { c.Uvarint(&v) }), len(Encode(func(c *Codec) { c.Uvarint(&v) })); n != want {
			t.Errorf("uvarint %d: SizeOf %d, encoded %d", v, n, want)
		}
	}
}

// encodeU64 is the uvarint encoding of v.
func encodeU64(v uint64) []byte { return Encode(func(c *Codec) { c.Uvarint(&v) }) }

// encodeI64 is the zigzag varint encoding of v.
func encodeI64(v int64) []byte { return Encode(func(c *Codec) { c.Varint(&v) }) }

func TestRejects(t *testing.T) {
	var (
		u64 uint64
		i32 int32
		u32 uint32
		bl  bool
	)
	good := Encode(samples()[1].walk)
	for _, tc := range []struct {
		name, wantErr string
		in            []byte
		walk          func(*Codec)
	}{
		{"trailing bytes", "trailing", append(bytes.Clone(good), 0), (&sample{}).walk},
		{"non-shortest varint", "shortest", []byte{0x80, 0x00}, func(c *Codec) { c.Uvarint(&u64) }},
		{"non-shortest varint, nonzero", "shortest", []byte{0x81, 0x80, 0x00}, func(c *Codec) { c.Uvarint(&u64) }},
		{"overflowing varint", "overflowing", bytes.Repeat([]byte{0xff}, 11), func(c *Codec) { c.Uvarint(&u64) }},
		{"bool of 2", "bad bool", []byte{2}, func(c *Codec) { c.Bool(&bl) }},
		{"int32 overflow", "overflows int32", encodeI64(math.MaxInt32 + 1), func(c *Codec) { c.I32(&i32) }},
		{"int32 underflow", "overflows int32", encodeI64(math.MinInt32 - 1), func(c *Codec) { c.I32(&i32) }},
		{"uint32 overflow", "overflows uint32", encodeU64(math.MaxUint32 + 1), func(c *Codec) { c.U32(&u32) }},
		{"bad magic", "bad magic", append([]byte("WIRX"), good[4:]...), (&sample{}).walk},
		{"blob longer than input", "does not fit", append(encodeU64(5), 1, 2), func(c *Codec) { var b []byte; c.Blob(&b) }},
	} {
		err := Decode(tc.in, tc.walk)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
	for n := range good {
		var s sample
		if err := Decode(good[:n], s.walk); err == nil {
			t.Errorf("truncated to %d of %d bytes: decoded without error", n, len(good))
		}
	}
}

// TestListCountBeyondInput: a list whose count cannot fit in the bytes
// left is refused before its elements are allocated.
func TestListCountBeyondInput(t *testing.T) {
	in := append(encodeU64(1<<24), make([]byte, 64)...)
	decode := func() error {
		var s []uint64
		return Decode(in, func(c *Codec) { List(c, &s, 1, c.Uvarint) })
	}
	if err := decode(); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("got %v, want a length error", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<10 {
		t.Fatalf("ten refused decodes of a %d-element list allocated %d bytes", 1<<24, alloc)
	}
}
