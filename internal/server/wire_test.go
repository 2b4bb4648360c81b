package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// The wire codec is held to encoding/json, which it replaced: decoding must
// accept and reject the same lines with the same results, and encoding must
// produce the same bytes.

// wireOutcome is what the server makes of one request line.
type wireOutcome struct {
	id  uint64
	ops []Op
	err string // "" when the request is accepted
}

// referenceRequest is the request path the codec replaced: json.Unmarshal
// into a WireRequest, then ParseOpCode and ParseCmp on each op.
func referenceRequest(line []byte) wireOutcome {
	var wr WireRequest
	if err := json.Unmarshal(line, &wr); err != nil {
		return wireOutcome{err: "bad request: " + err.Error()}
	}
	out := wireOutcome{id: wr.ID, ops: []Op{}}
	for _, wo := range wr.Ops {
		code, err := ParseOpCode(wo.Op)
		if err != nil {
			return wireOutcome{id: wr.ID, err: err.Error()}
		}
		op := Op{Code: code, Ks: wo.Ks, Key: wo.Key, Val: wo.Val}
		if code == OpCmp {
			if op.Cmp, err = ParseCmp(wo.Cmp); err != nil {
				return wireOutcome{id: wr.ID, err: err.Error()}
			}
		}
		out.ops = append(out.ops, op)
	}
	return out
}

func codecRequest(d *requestDecoder, req *Request, line []byte) wireOutcome {
	id, err := d.decode(line, req)
	if err != nil {
		return wireOutcome{id: id, err: err.Error()}
	}
	return wireOutcome{id: id, ops: append([]Op{}, req.Ops...)}
}

// dirtyLine leaves a decoder's scratch full of ops, keyspace names and a
// nesting record, so that the line decoded after it shows any state that
// leaks from one line to the next.
const dirtyLine = `{"id":99,"x":[[{}]],"ops":[{"op":"cmp","ks":"left","key":7,"val":-7,"cmp":"lt"},` +
	`{"op":"write","ks":"over","key":8,"val":8},{"op":"bogus","cmp":"nah"},{"op":"inc","ks":"\u00e9","key":9,"val":9}]}`

// roundTripRequests are the requests TestWireRoundTrip sends.
var roundTripRequests = []WireRequest{
	{ID: 1, Ops: []WireOp{{Op: "write", Ks: "acct", Key: 1, Val: 100}}},
	{ID: 2, Ops: []WireOp{
		{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 50},
		{Op: "inc", Ks: "acct", Key: 1, Val: -50},
		{Op: "read", Ks: "acct", Key: 1},
	}},
	{ID: 3, Ops: []WireOp{
		{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 1000},
		{Op: "write", Ks: "acct", Key: 1, Val: 0},
	}},
	{ID: 4, Ops: []WireOp{{Op: "nope", Key: 1}}},
	{ID: 5, Ops: []WireOp{{Op: "read", Ks: "acct", Key: 1}}},
	{ID: 1, Ops: []WireOp{{Op: "inc", Ks: "hot", Key: 0, Val: 1}}},
	{ID: 6, Ops: []WireOp{{Op: "read", Ks: "hot", Key: 0}}},
}

// requestEdgeCases are lines where encoding/json's behaviour is easy to get
// wrong, by name.
var requestEdgeCases = []struct{ name, line string }{
	{"kelvin sign key", "{\"id\":1,\"ops\":[{\"op\":\"read\",\"\u212aey\":3}]}"},
	{"escaped kelvin sign key", `{"id":1,"ops":[{"op":"read","\u212Aey":3}]}`},
	{"long s key", "{\"id\":1,\"op\u017f\":[{\"op\":\"read\",\"key\":3}]}"},
	{"upper-case keys", `{"ID":1,"Ops":[{"OP":"read","KEY":3}]}`},
	{"dotted and dotless i keys", "{\"\u0131d\":1,\"\u0130d\":2,\"ops\":[{\"op\":\"read\"}]}"},
	{"duplicate ops", `{"id":1,"ops":[{"op":"write","ks":"a","key":1,"val":5},{"op":"read","key":2}],"ops":[{"op":"inc"}]}`},
	{"duplicate ops revive", `{"id":1,"ops":[{"op":"read","key":1},{"op":"read","key":2}],"ops":[{"op":"inc"}],"ops":[null,null]}`},
	{"duplicate ops reset", `{"id":1,"ops":[{"op":"read","key":1},{"op":"read","key":2}],"ops":[],"ops":[null]}`},
	{"duplicate id", `{"id":1,"id":2,"id":null,"ops":[{"op":"read"}]}`},
	{"null ops", `{"id":1,"ops":[{"op":"read"}],"ops":null}`},
	{"top-level null", `null`},
	{"top-level array", `[{"id":1}]`},
	{"empty object", `{}`},
	{"whitespace only", " \t\r"},
	{"key with fraction", `{"id":1,"ops":[{"op":"read","key":1.0}]}`},
	{"val with exponent", `{"id":1,"ops":[{"op":"inc","key":1,"val":1e2}]}`},
	{"negative key", `{"id":1,"ops":[{"op":"read","key":-0}]}`},
	{"val minus zero", `{"id":1,"ops":[{"op":"inc","key":1,"val":-0}]}`},
	{"id out of range", `{"id":18446744073709551616,"ops":[{"op":"read"}]}`},
	{"id at max", `{"id":18446744073709551615,"ops":[{"op":"read"}]}`},
	{"val at min", `{"id":1,"ops":[{"op":"inc","val":-9223372036854775808}]}`},
	{"val out of range", `{"id":1,"ops":[{"op":"inc","val":9223372036854775808}]}`},
	{"val below range", `{"id":1,"ops":[{"op":"inc","val":-9223372036854775809}]}`},
	{"leading zero", `{"id":01,"ops":[]}`},
	{"trailing object", `{"id":1,"ops":[{"op":"read"}]}{}`},
	{"trailing space", `{"id":1,"ops":[{"op":"read"}]}  `},
	{"unknown nested fields", `{"id":1,"meta":{"a":[1,{"b":null}],"c":"\u00e9","d":-1.5e-3},"ops":[{"op":"read","x":[[],{}],"key":1}]}`},
	{"type error then op error", `{"id":"7","ops":[{"op":"nope"}]}`},
	{"op error then type error", `{"id":7,"ops":[{"op":"nope"},{"op":"read","key":"1"}]}`},
	{"syntax beats type error", `{"id":"7","ops":[}`},
	{"cmp missing", `{"id":3,"ops":[{"op":"cmp","key":1,"val":2}]}`},
	{"cmp on a read", `{"id":3,"ops":[{"op":"read","key":1,"cmp":"bogus"}]}`},
	{"escaped op name", `{"id":3,"ops":[{"op":"r\u0065ad","ks":"a\/b\n\"","key":1}]}`},
	{"surrogate pair", `{"id":3,"ops":[{"op":"read","ks":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041"}]}`},
	{"invalid utf-8", "{\"id\":3,\"ops\":[{\"op\":\"read\",\"ks\":\"a\xff\xc0\xafb\"}]}"},
	{"control character", "{\"id\":3,\"ops\":[{\"op\":\"read\",\"ks\":\"a\x01\"}]}"},
	{"bad escape", `{"id":3,"ops":[{"op":"read","ks":"\x"}]}`},
	{"short unicode escape", `{"id":3,"ops":[{"op":"read","ks":"\u12"}]}`},
	{"op is a number", `{"id":3,"ops":[{"op":1}]}`},
	{"op is null", `{"id":3,"ops":[{"op":null,"key":1}]}`},
	{"element is a number", `{"id":3,"ops":[1]}`},
	{"ops is an object", `{"id":3,"ops":{}}`},
	{"bare literal", `{"id":tru}`},
	{"truncated", `{"id":3,"ops":[{"op":"read"`},
	{"depth at limit", `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `,"id":1,"ops":[{"op":"read"}]}`},
	{"depth past limit", `{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `,"id":1,"ops":[{"op":"read"}]}`},
	{"missing colon", `{"id" 1}`},
	{"trailing comma", `{"id":1,"ops":[{"op":"read"},]}`},
}

func FuzzWireRequest(f *testing.F) {
	for _, wr := range roundTripRequests {
		line, err := json.Marshal(&wr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, c := range requestEdgeCases {
		f.Add([]byte(c.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want := referenceRequest(line)
		var (
			d   requestDecoder
			req Request
		)
		codecRequest(&d, &req, []byte(dirtyLine))
		for pass := 0; pass < 2; pass++ { // the second pass reuses the first's scratch
			got := codecRequest(&d, &req, line)
			if !sameOutcome(want, got) {
				t.Fatalf("line %q (pass %d):\n got  %+v\n want %+v", line, pass, got, want)
			}
		}
	})
}

// sameOutcome compares id and error class, and the ops of an accepted line.
// A "bad request" (syntax or type error) matches any other, since the codec
// words those its own way; an unknown op or comparison is ParseOpCode's or
// ParseCmp's error on both paths, so its text matches exactly.
func sameOutcome(want, got wireOutcome) bool {
	switch {
	case got.id != want.id:
		return false
	case want.err == "":
		return got.err == "" && reflect.DeepEqual(got.ops, want.ops)
	case isBadRequest(want.err):
		return isBadRequest(got.err)
	}
	return got.err == want.err
}

func isBadRequest(err string) bool { return strings.HasPrefix(err, "bad request: ") }

func TestWireRequestEdgeCases(t *testing.T) {
	for _, c := range requestEdgeCases {
		want := referenceRequest([]byte(c.line))
		var d requestDecoder
		if got := codecRequest(&d, &Request{}, []byte(c.line)); !sameOutcome(want, got) {
			t.Errorf("%s: %q:\n got  %+v\n want %+v", c.name, c.line, got, want)
		}
	}
}

// TestWireKeyFolding checks key matching against encoding/json for every
// rune outside ASCII that a Unicode case mapping ties to an ASCII letter (the
// Kelvin sign, the long s, the dotted and dotless i, ...), in every position
// of every request field name.
func TestWireKeyFolding(t *testing.T) {
	values := map[string]string{"id": "5", "ops": `[{"op":"inc"}]`, "op": `"inc"`, "ks": `"x"`, "key": "3", "val": "3", "cmp": `"lt"`}
	var d requestDecoder
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		if unicode.ToUpper(r) >= utf8.RuneSelf && unicode.ToLower(r) >= utf8.RuneSelf && foldRune(r) >= utf8.RuneSelf {
			continue
		}
		for _, name := range []string{"id", "ops", "op", "ks", "key", "val", "cmp"} {
			for i := range name {
				k := name[:i] + string(r) + name[i+1:]
				line := `{"id":1,"ops":[{"op":"read","` + k + `":` + values[name] + `}]}`
				if name == "id" || name == "ops" {
					line = `{"id":9,"` + k + `":` + values[name] + `}`
				}
				want := referenceRequest([]byte(line))
				if got := codecRequest(&d, &Request{}, []byte(line)); !sameOutcome(want, got) {
					t.Errorf("%q (U+%04X):\n got  %+v\n want %+v", line, r, got, want)
				}
			}
		}
	}
}

// readsOf turns fuzz bytes into reads: nil for none, else eight bytes each
// (an empty non-nil slice for fewer than eight).
func readsOf(raw []byte) []int64 {
	if len(raw) == 0 {
		return nil
	}
	reads := []int64{}
	for ; len(raw) >= 8; raw = raw[8:] {
		reads = append(reads, int64(binary.LittleEndian.Uint64(raw)))
	}
	return reads
}

func jsonLine(t *testing.T, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzWireResponse(f *testing.F) {
	for _, line := range []string{
		`{"id":1,"ok":true,"guard":true}`,
		`{"id":2,"ok":true,"guard":true,"reads":[50]}`,
		`{"id":3,"ok":true,"guard":false}`,
		`{"id":4,"ok":false,"guard":false,"err":"server: unknown op \"nope\""}`,
		`{"id":5,"ok":true,"guard":true,"reads":[-9223372036854775808,9223372036854775807]}`,
		`{"id":1,"reads":[1,2],"reads":[7],"reads":[null,null,null]}`,
		`{"reads":[]}`,
		`{"reads":[1],"reads":null}`,
		`null`,
		`{"err":"\u003c\ud800x\u2028"}`,
		"{\"OK\":true,\"GUARD\":true,\"\u212aey\":1}",
		`{"id":1}x`,
		`{"ok":1}`,
		`{"reads":[1.5]}`,
	} {
		f.Add([]byte(line), uint64(1), true, true, []byte(nil), "")
	}
	for _, e := range []string{
		"<script>&amp;</script>",
		"\x00\x1f\b\f\n\r\t\"\\\x7f",
		"bad \xff\xfe utf-8 \xe2\x80",
		"line\u2028paragraph\u2029",
		"server: unknown op \"\\u00e9\"",
	} {
		f.Add([]byte(`{}`), uint64(1<<63), false, true, []byte("12345678abcdefgh"), e)
	}
	f.Fuzz(func(t *testing.T, line []byte, id uint64, ok, guard bool, raw []byte, errText string) {
		// The client's decoder against json.Unmarshal.
		var want, got WireResponse
		wantErr := json.Unmarshal(line, &want)
		var d responseDecoder
		d.decode([]byte(`{"reads":[1,2,3,4],"err":"x"}`), &WireResponse{}) // dirty scratch
		gotErr := d.decode(line, &got)
		if (gotErr == nil) != (wantErr == nil) || wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q:\n got  %#v, %v\n want %#v, %v", line, got, gotErr, want, wantErr)
		}

		// The server's response encoder against json.Encoder.
		resp := WireResponse{ID: id, OK: ok, Guard: guard, Reads: readsOf(raw), Err: errText}
		if got, want := appendResponse(nil, &resp), jsonLine(t, &resp); !bytes.Equal(got, want) {
			t.Fatalf("encode %#v:\n got  %s want %s", resp, got, want)
		}

		// The client's request encoder against json.Encoder: nil, empty and
		// non-empty ops, with and without the omitempty fields.
		wr := WireRequest{ID: id}
		switch {
		case ok:
			wr.Ops = []WireOp{{Op: errText, Ks: errText, Key: id, Val: -int64(id), Cmp: errText}, {Op: "read"}}
		case guard:
			wr.Ops = []WireOp{}
		}
		if got, want := appendRequest(nil, wr.ID, wr.Ops), jsonLine(t, &wr); !bytes.Equal(got, want) {
			t.Fatalf("encode %#v:\n got  %s want %s", wr, got, want)
		}
	})
}
