package record

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	d := NewDataset("rt")
	d.Append(3, map[string]string{"title": "cascade correlation", "venue": "nips"})
	d.Append(UnknownEntity, map[string]string{"title": "q-gram blocking"})
	d.Append(3, map[string]string{})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round-trip read %d records, wrote %d", got.Len(), d.Len())
	}
	for i, want := range d.Records() {
		r := got.Record(ID(i))
		if r.ID != want.ID || r.Entity != want.Entity {
			t.Errorf("record %d: (id %d, entity %d), want (%d, %d)", i, r.ID, r.Entity, want.ID, want.Entity)
		}
		if len(r.Attrs) != len(want.Attrs) {
			t.Errorf("record %d: %d attrs, want %d", i, len(r.Attrs), len(want.Attrs))
		}
		for k, v := range want.Attrs {
			if r.Attrs[k] != v {
				t.Errorf("record %d: attr %s=%q, want %q", i, k, r.Attrs[k], v)
			}
		}
	}
}

func TestReadJSONLUnlabeledAndBlanks(t *testing.T) {
	in := `{"attrs":{"name":"alice"}}

	{"entity":7,"attrs":{"name":"bob"}}
`
	d, err := ReadJSONL(strings.NewReader(in), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("read %d records, want 2 (blank line skipped)", d.Len())
	}
	if d.Record(0).Entity != UnknownEntity {
		t.Errorf("missing entity parsed as %d, want UnknownEntity", d.Record(0).Entity)
	}
	if d.Record(1).Entity != 7 {
		t.Errorf("entity %d, want 7", d.Record(1).Entity)
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	in := "{\"attrs\":{\"a\":\"x\"}}\nnot json\n"
	if _, err := ReadJSONL(strings.NewReader(in), "bad"); err == nil {
		t.Fatal("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line", err)
	}
}

// FuzzReadJSONL feeds arbitrary bytes to the JSONL decoder — the parser of
// untrusted bytes behind HTTP ingest and segment restore. Any input must
// either fail cleanly or parse into a dataset that survives a WriteJSONL
// round-trip unchanged, and whose serialisation is then a fixed point. Run
// with `go test -fuzz=FuzzReadJSONL ./internal/record`; the seed corpus
// under testdata/fuzz covers labels, blank lines, escapes, invalid UTF-8
// and malformed rows in plain `go test` runs.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"entity":3,"attrs":{"title":"cascade correlation","venue":"nips"}}` + "\n"))
	f.Add([]byte("\n  \n{\"attrs\":{}}\r\n{\"entity\":-1,\"attrs\":null}"))
	f.Add([]byte(`{"attrs":{"a":"x y\n","a":"dup"}}`))
	f.Add([]byte(`{"entity":1e3,"attrs":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSONL(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, d); err != nil {
			t.Fatalf("write parsed dataset: %v", err)
		}
		got, err := ReadJSONL(bytes.NewReader(first.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("re-read of written dataset: %v\n%s", err, first.Bytes())
		}
		if got.Len() != d.Len() {
			t.Fatalf("round-trip read %d records, parsed %d", got.Len(), d.Len())
		}
		for i, want := range d.Records() {
			r := got.Record(ID(i))
			if r.Entity != want.Entity || len(r.Attrs) != len(want.Attrs) {
				t.Fatalf("record %d: entity %d with %d attrs, want %d with %d",
					i, r.Entity, len(r.Attrs), want.Entity, len(want.Attrs))
			}
			for k, v := range want.Attrs {
				if got, ok := r.Attrs[k]; !ok || got != v {
					t.Fatalf("record %d: attr %q=%q, want %q", i, k, got, v)
				}
			}
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialisation not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
