package wire

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// The datapath contract: once buffers have warmed up, encoding a frame into
// a retained scratch buffer and decoding one into a reused object allocate
// nothing. These guards keep the zero-allocation wire path honest — a
// regression here silently reintroduces per-request garbage on the server's
// hot loop.

func TestAppendRequestAllocs(t *testing.T) {
	req := &Request{Op: OpCAS, ID: 7, Key: 42,
		OldValue: bytes.Repeat([]byte{0xA5}, 96),
		Value:    bytes.Repeat([]byte{0x5A}, 128)}
	dst := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendRequest(dst[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	}); n != 0 {
		t.Fatalf("AppendRequest allocates %.1f/op, want 0", n)
	}
}

func TestAppendResponseAllocs(t *testing.T) {
	resp := &Response{Op: OpGet, ID: 9, Status: StatusOK,
		Value: bytes.Repeat([]byte{0xEE}, 256)}
	dst := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendResponse(dst[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	}); n != 0 {
		t.Fatalf("AppendResponse allocates %.1f/op, want 0", n)
	}
}

func TestParseRequestReuseAllocs(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{Op: OpAtomic, ID: 3, Subs: []Sub{
		{Kind: SubPut, Key: 1, Value: bytes.Repeat([]byte{1}, 64)},
		{Kind: SubGet, Key: 2},
		{Kind: SubAdd, Key: 3, Delta: 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:] // ParseRequestReuse takes the length-stripped payload
	req := new(Request)
	// Warm the Subs capacity once, then the steady state must be clean.
	if err := ParseRequestReuse(req, payload); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := ParseRequestReuse(req, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseRequestReuse allocates %.1f/op, want 0", n)
	}
}

func TestParseResponseReuseAllocs(t *testing.T) {
	frame, err := AppendResponse(nil, &Response{Op: OpGet, ID: 5,
		Status: StatusOK, Value: bytes.Repeat([]byte{7}, 200)})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	resp := new(Response)
	if err := ParseResponseReuse(resp, payload); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := ParseResponseReuse(resp, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseResponseReuse allocates %.1f/op, want 0", n)
	}
}

// TestReadRequestReuseSteadyState drives the full framed read path through
// a reused Request: after the first read grows the retained frame buffer,
// subsequent reads of same-or-smaller frames allocate nothing.
func TestReadRequestReuseSteadyState(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{Op: OpPut, ID: 2, Key: 8,
		Value: bytes.Repeat([]byte{3}, 128)})
	if err != nil {
		t.Fatal(err)
	}
	req := new(Request)
	var r bytes.Reader
	r.Reset(frame)
	if err := ReadRequestReuse(&r, req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if err := ReadRequestReuse(&r, req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadRequestReuse steady state allocates %.1f/op, want 0", n)
	}
	if req.Op != OpPut || req.Key != 8 || len(req.Value) != 128 {
		t.Fatalf("reused request decoded wrong: %+v", req)
	}
}

// TestBorrowedDecodeDoesNotAlias verifies the borrow discipline: decoded
// byte fields alias the frame buffer (no copy), so they must match the
// encoded bytes, and a second parse of a different frame must not leak the
// first frame's contents.
func TestBorrowedDecodeDoesNotAlias(t *testing.T) {
	f1, _ := AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: 1, Value: []byte("first-value")})
	f2, _ := AppendRequest(nil, &Request{Op: OpPut, ID: 2, Key: 2, Value: []byte("second")})
	req := new(Request)
	if err := ParseRequestReuse(req, f1[4:]); err != nil {
		t.Fatal(err)
	}
	if string(req.Value) != "first-value" {
		t.Fatalf("first parse: %q", req.Value)
	}
	if err := ParseRequestReuse(req, f2[4:]); err != nil {
		t.Fatal(err)
	}
	if string(req.Value) != "second" {
		t.Fatalf("second parse: %q", req.Value)
	}
}

// fillStruct sets every field of the struct v points to — unexported ones
// included — to a non-zero value.
func fillStruct(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 4))
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Struct:
			fillStruct(t, f.Addr().Interface())
		default:
			t.Fatalf("field %s: kind %v is not handled — teach fillStruct and reset about it", rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestResetClearsEveryField guards the field-by-field resets: a reused
// object's reset must leave nothing of its last use behind but the retained
// buffers, so a field added to Request or Response and forgotten there fails
// here.
func TestResetClearsEveryField(t *testing.T) {
	var req Request
	fillStruct(t, &req)
	req.reset()
	if cap(req.frame) == 0 || cap(req.Subs) == 0 {
		t.Errorf("Request.reset dropped a retained buffer: frame cap %d, Subs cap %d", cap(req.frame), cap(req.Subs))
	}
	req.frame, req.Subs = nil, nil
	if !reflect.DeepEqual(req, Request{}) {
		t.Errorf("Request.reset left %+v", req)
	}

	var resp Response
	fillStruct(t, &resp)
	resp.reset()
	if cap(resp.frame) == 0 || cap(resp.Value) == 0 || cap(resp.Subs) == 0 || cap(resp.Entries) == 0 {
		t.Errorf("Response.reset dropped a retained buffer: frame %d, Value %d, Subs %d, Entries %d",
			cap(resp.frame), cap(resp.Value), cap(resp.Subs), cap(resp.Entries))
	}
	if len(resp.Value) != 0 || len(resp.Subs) != 0 || len(resp.Entries) != 0 {
		t.Errorf("Response.reset kept %d value bytes, %d subs, %d entries", len(resp.Value), len(resp.Subs), len(resp.Entries))
	}
	resp.frame, resp.Value, resp.Subs, resp.Entries = nil, nil, nil, nil
	if !reflect.DeepEqual(resp, Response{}) {
		t.Errorf("Response.reset left %+v", resp)
	}

	// The *Reuse parsers clear whatever they are handed, parsed before or not.
	reqFrame, _ := AppendRequest(nil, &Request{Op: OpGet, ID: 7, Key: 9})
	respFrame, _ := AppendResponse(nil, &Response{Op: OpPing, ID: 7})
	fillStruct(t, &req)
	fillStruct(t, &resp)
	if err := ParseRequestReuse(&req, reqFrame[4:]); err != nil {
		t.Fatal(err)
	}
	if err := ParseResponseReuse(&resp, respFrame[4:]); err != nil {
		t.Fatal(err)
	}
	req.frame, req.Subs = nil, nil
	resp.frame, resp.Value, resp.Subs, resp.Entries = nil, nil, nil, nil
	if want := (Request{Op: OpGet, ID: 7, Key: 9}); !reflect.DeepEqual(req, want) {
		t.Errorf("ParseRequestReuse into a caller-filled request left %+v", req)
	}
	if want := (Response{Op: OpPing, ID: 7}); !reflect.DeepEqual(resp, want) {
		t.Errorf("ParseResponseReuse into a caller-filled response left %+v", resp)
	}
}
