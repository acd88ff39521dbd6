package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAppendAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]string{
		"k1": `{"wall":100}`,
		"k2": `{"wall":200}`,
		"k3": `{"wall":300}`,
	}
	for k, v := range cells {
		if err := j.Append(k, "cell-"+k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(cells) {
		t.Fatalf("replayed %d cells, want %d", r.Len(), len(cells))
	}
	for k, v := range cells {
		got, ok := r.Replayed(k)
		if !ok || string(got) != v {
			t.Fatalf("Replayed(%s) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if _, ok := r.Replayed("absent"); ok {
		t.Fatal("unknown key replayed")
	}
}

func TestAppendDeduplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append("k", "cell", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte{'\n'}); n != 1 {
		t.Fatalf("journal has %d lines, want 1 (duplicate appends must be dropped)", n)
	}
}

// TestReplayTruncatedLastLine pins the interrupted-writer contract: a
// partial trailing line is skipped, everything before it survives, and
// new appends do not fuse with the debris.
func TestReplayTruncatedLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	good := `{"key":"k1","cell":"CG|CMT|seed=1","result":{"wall":1}}` + "\n"
	truncated := `{"key":"k2","cell":"FT|CMT|seed=1","result":{"wa` // killed mid-write
	if err := os.WriteFile(path, []byte(good+truncated), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || j.Skipped() != 1 {
		t.Fatalf("len = %d, skipped = %d; want 1 and 1", j.Len(), j.Skipped())
	}
	if _, ok := j.Replayed("k2"); ok {
		t.Fatal("truncated entry must not be replayed")
	}
	if err := j.Append("k3", "IS|CMT|seed=1", []byte(`{"wall":3}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Replayed("k1"); !ok {
		t.Fatal("k1 lost after truncated-tail recovery")
	}
	if got, ok := r.Replayed("k3"); !ok || string(got) != `{"wall":3}` {
		t.Fatalf("k3 = %q, %v after recovery", got, ok)
	}
}

// TestReplayCorruptedLastLine covers a complete but garbage final line
// (e.g. a partially overwritten block).
func TestReplayCorruptedLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	content := `{"key":"k1","cell":"a","result":{"v":1}}` + "\n" +
		`{"key":"k2","cell":"b","result":{"v":2}}` + "\n" +
		"\x00\x00corrupted\xff\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 || j.Skipped() != 1 {
		t.Fatalf("len = %d, skipped = %d; want 2 and 1", j.Len(), j.Skipped())
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Append("k", "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Replayed("k"); ok {
		t.Fatal("nil journal replayed an entry")
	}
	if j.Len() != 0 || j.Skipped() != 0 || j.Close() != nil {
		t.Fatal("nil journal not inert")
	}
}

func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Second)
	now := time.Unix(0, 0)
	p.now = func() time.Time { return now }
	p.start, p.last = now, now

	p.AddTotal(4)
	p.Done(false) // within the interval: silent
	if buf.Len() != 0 {
		t.Fatalf("premature output: %q", buf.String())
	}
	now = now.Add(2 * time.Second)
	p.Done(true)
	line := buf.String()
	for _, want := range []string{"progress: 2/4 cells", "(50.0%)", "cache hits 1 (50.0%)", "eta"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
	buf.Reset()
	now = now.Add(10 * time.Second)
	p.Done(false)
	p.Done(false)
	p.Finish()
	if !strings.Contains(buf.String(), "progress: 4/4 cells (100.0%)") {
		t.Fatalf("final line = %q", buf.String())
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.AddTotal(10)
	p.Done(true)
	p.Finish()
}

// FuzzJournalReplay opens a journal file holding arbitrary bytes. Open
// must never panic, and every replayed entry carries a key and a result.
// An entry appended afterwards under a new key must replay after Close
// and a second Open, beside everything the first Open replayed: the
// torn-tail repair keeps it off whatever debris the file ended with.
func FuzzJournalReplay(f *testing.F) {
	good := `{"key":"k1","cell":"CG|Serial|seed=1","result":{"wall":100}}` + "\n"
	f.Add([]byte(good))
	f.Add([]byte(good + good[:25]))
	f.Add([]byte(good + "{garbage\n" + good))
	f.Add([]byte(good[:len(good)-1] + "\r"))
	f.Add([]byte(`{"key":"","cell":"x","result":1}` + "\n"))
	f.Add([]byte(`{"key":"k2","result":null}`))
	f.Add([]byte("\r\n\n  \n"))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "run.jsonl")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			return
		}
		for k, v := range j.replayed {
			if k == "" || len(v) == 0 {
				t.Fatalf("replayed entry with key %q and result %q", k, v)
			}
		}
		key := "appended"
		for j.replayed[key] != nil {
			key += "+"
		}
		result := `{"wall":1}`
		if err := j.Append(key, "cell", []byte(result)); err != nil {
			t.Fatal(err)
		}
		n := j.Len()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got, ok := r.Replayed(key); !ok || string(got) != result {
			t.Fatalf("appended entry replayed as %q, %v; want %q", got, ok, result)
		}
		if r.Len() != n {
			t.Fatalf("second open replayed %d cells, first open and the append held %d", r.Len(), n)
		}
	})
}
