package wire

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.U16(0x1234)
	w.U32(0xdeadbeef)
	w.U64(0x0102030405060708)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.Str("device-7")
	w.Buf = append(w.Buf, 0xee, 0xff)

	want := []byte{
		0xab, 0x34, 0x12, 0xef, 0xbe, 0xad, 0xde,
		8, 7, 6, 5, 4, 3, 2, 1, 1, 0,
		3, 0, 0, 0, 1, 2, 3, 0, 0, 0, 0,
		8, 0, 0, 0, 'd', 'e', 'v', 'i', 'c', 'e', '-', '7', 0xee, 0xff,
	}
	if !bytes.Equal(w.Buf, want) {
		t.Fatalf("encoding\n got %x\nwant %x", w.Buf, want)
	}

	r := Reader{Prefix: "t", Buf: w.Buf}
	if r.U8() != 0xab || r.U16() != 0x1234 || r.U32() != 0xdeadbeef || r.U64() != 0x0102030405060708 || !r.Bool() || r.Bool() {
		t.Fatal("integers did not round-trip")
	}
	b := r.Bytes()
	if !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %x", b)
	}
	b[0] = 9 // a fresh slice: the input must not change
	if e := r.Bytes(); e == nil || len(e) != 0 {
		t.Fatalf("empty Bytes = %#v, want empty non-nil", e)
	}
	if s := r.Str(); s != "device-7" {
		t.Fatalf("Str = %q", s)
	}
	if err := r.Finish("msg"); err == nil || err.Error() != "t: 2 trailing bytes in msg" {
		t.Fatalf("Finish with 2 bytes left: %v", err)
	}
	if raw := r.Raw(2, "tail"); !bytes.Equal(raw, []byte{0xee, 0xff}) {
		t.Fatalf("Raw = %x", raw)
	}
	if err := r.Finish("msg"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Buf, want) {
		t.Fatal("reading changed the input")
	}
}

func TestShortReads(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		read func(*Reader)
		err  string
	}{
		{"u8", nil, func(r *Reader) { r.U8() }, "p: decode: truncated u8 at offset 0"},
		{"u16", []byte{1}, func(r *Reader) { r.U16() }, "p: decode: truncated u16 at offset 0"},
		{"u32 after u8", []byte{1, 2, 3, 4}, func(r *Reader) { r.U8(); r.U32() }, "p: decode: truncated u32 at offset 1"},
		{"u64", make([]byte, 7), func(r *Reader) { r.U64() }, "p: decode: truncated u64 at offset 0"},
		{"bytes prefix", []byte{1, 0}, func(r *Reader) { r.Bytes() }, "p: decode: truncated u32 at offset 0"},
		{"bytes body", []byte{2, 0, 0, 0, 7}, func(r *Reader) { r.Bytes() }, "p: decode: truncated bytes at offset 4"},
		{"bytes huge", []byte{0xff, 0xff, 0xff, 0xff}, func(r *Reader) { r.Bytes() }, "p: decode: truncated bytes at offset 4"},
		{"string body", []byte{2, 0, 0, 0, 'a'}, func(r *Reader) { _ = r.Str() }, "p: decode: truncated string at offset 4"},
		{"raw", []byte{1, 2}, func(r *Reader) { r.Raw(3, "digest") }, "p: decode: truncated digest at offset 0"},
		{"negative raw", []byte{1, 2}, func(r *Reader) { r.Raw(-1, "digest") }, "p: decode: truncated digest at offset 0"},
		{"first error sticks", []byte{1}, func(r *Reader) { r.U32(); r.U8(); r.Fail("count") }, "p: decode: truncated u32 at offset 0"},
		{"fail", []byte{1}, func(r *Reader) { r.U8(); r.Fail("count") }, "p: decode: truncated count at offset 1"},
		{"bool above 1", []byte{2}, func(r *Reader) { r.Bool() }, "p: decode: truncated bool at offset 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Reader{Prefix: "p", Buf: tc.buf}
			tc.read(&r)
			if r.Err == nil || r.Err.Error() != tc.err {
				t.Fatalf("Err = %v, want %s", r.Err, tc.err)
			}
			if err := r.Finish("msg"); err != r.Err {
				t.Fatalf("Finish = %v, want the read error", err)
			}
			if r.U64() != 0 || r.Bytes() != nil || r.Str() != "" {
				t.Fatal("a failed reader returned data")
			}
		})
	}
}
