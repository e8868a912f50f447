package accountant

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "GDPTST1\n"

// collect returns an apply callback that copies every payload into dst.
func collect(dst *[][]byte) func([]byte) error {
	return func(p []byte) error {
		*dst = append(*dst, append([]byte(nil), p...))
		return nil
	}
}

func TestLog(t *testing.T) {
	frames := [][]byte{Frame(nil, []byte("one")), Frame(nil, []byte("two")), Frame(nil, []byte("three"))}
	// file returns magic + the first n frames.
	file := func(n int) []byte {
		b := []byte(testMagic)
		for _, f := range frames[:n] {
			b = append(b, f...)
		}
		return b
	}
	newPath := func(t *testing.T, content []byte) string {
		path := filepath.Join(t.TempDir(), "test.log")
		if content != nil {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	open := func(t *testing.T, path string, opts DurableOptions) (*Log, [][]byte) {
		t.Helper()
		var got [][]byte
		l, err := OpenLog(path, testMagic, nil, opts, collect(&got))
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		return l, got
	}

	t.Run("fresh file gets magic", func(t *testing.T) {
		path := newPath(t, nil)
		l, got := open(t, path, DurableOptions{})
		defer l.Close()
		if len(got) != 0 || l.Size() != int64(len(testMagic)) {
			t.Fatalf("fresh log replayed %d frames, size %d", len(got), l.Size())
		}
		// The file is open: past its Size() bytes lies the zero tail.
		b := readFile(t, path)
		if int64(len(b)) < l.Size() || string(b[:l.Size()]) != testMagic {
			t.Fatalf("fresh file starts %q, want the magic", b[:min(int64(len(b)), l.Size())])
		}
		if rest := bytes.TrimLeft(b[l.Size():], "\x00"); len(rest) != 0 {
			t.Fatalf("the %d bytes after the magic end in %d that are not zeros", len(b)-int(l.Size()), len(rest))
		}
	})

	t.Run("fresh file gets header in the same write", func(t *testing.T) {
		path := newPath(t, []byte(testMagic[:3])) // torn before the magic completed
		var fs *faultSyncer
		var got [][]byte
		opts := openFault(func(s *faultSyncer) { fs = s })
		l, err := OpenLog(path, testMagic, []byte("hdr"), opts, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		want := Frame([]byte(testMagic), []byte("hdr"))
		if b := readFile(t, path); !bytes.Equal(b, want) || fs.writes != 1 || fs.syncs != 1 {
			t.Fatalf("file %q after %d writes / %d syncs, want %q after 1 / 1", b, fs.writes, fs.syncs, want)
		}
		if len(got) != 1 || string(got[0]) != "hdr" {
			t.Fatalf("apply saw %q, want the header once", got)
		}
	})

	t.Run("bad magic refuses", func(t *testing.T) {
		content := []byte("NOTALOG1 and then some")
		path := newPath(t, content)
		if _, err := OpenLog(path, testMagic, nil, DurableOptions{}, collect(new([][]byte))); !errors.Is(err, ErrLedgerCorrupt) {
			t.Fatalf("foreign magic: got %v, want ErrLedgerCorrupt", err)
		}
		if b := readFile(t, path); !bytes.Equal(b, content) {
			t.Fatal("refused open modified the file")
		}
	})

	t.Run("torn tail truncated, writer at the boundary", func(t *testing.T) {
		path := newPath(t, append(file(2), frames[2][:len(frames[2])-1]...))
		l, got := open(t, path, DurableOptions{})
		if len(got) != 2 || l.Size() != int64(len(file(2))) {
			t.Fatalf("replayed %d frames, size %d; want 2 frames, size %d", len(got), l.Size(), len(file(2)))
		}
		if err := l.Append(frames[2]); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if b := readFile(t, path); !bytes.Equal(b, file(3)) {
			t.Fatalf("append after repair left %d bytes, want the clean 3-frame file", len(b))
		}
	})

	t.Run("apply error refuses without truncating", func(t *testing.T) {
		content := append(file(2), 0xde, 0xad)
		path := newPath(t, content)
		boom := errors.New("boom")
		n := 0
		_, err := OpenLog(path, testMagic, nil, DurableOptions{}, func([]byte) error {
			if n++; n == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want the apply error", err)
		}
		if b := readFile(t, path); !bytes.Equal(b, content) {
			t.Fatal("refused open modified the file")
		}
		// The refusal released the lock.
		l, _ := open(t, path, DurableOptions{})
		l.Close()
	})

	t.Run("TruncateAt, append, reopen", func(t *testing.T) {
		path := newPath(t, file(3))
		l, _ := open(t, path, DurableOptions{})
		if err := l.TruncateAt(int64(len(file(1)))); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(frames[2]); err != nil {
			t.Fatal(err)
		}
		want := append(file(1), frames[2]...)
		if l.Size() != int64(len(want)) {
			t.Fatalf("Size = %d, want %d", l.Size(), len(want))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if b := readFile(t, path); !bytes.Equal(b, want) {
			t.Fatalf("file is %d bytes, want frames one+three (%d)", len(b), len(want))
		}
		l, got := open(t, path, DurableOptions{})
		defer l.Close()
		if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "three" {
			t.Fatalf("reopened to %q, want [one three]", got)
		}
	})

	t.Run("second opener is locked out", func(t *testing.T) {
		path := newPath(t, nil)
		l, _ := open(t, path, DurableOptions{})
		defer l.Close()
		if _, err := OpenLog(path, testMagic, nil, DurableOptions{}, collect(new([][]byte))); !errors.Is(err, ErrLedgerLocked) {
			t.Fatalf("second open: got %v, want ErrLedgerLocked", err)
		}
	})

	// A failed write or fsync latches the log; whatever reached the file
	// replays to a prefix of what was appended.
	for _, tc := range []struct {
		name string
		arm  func(*faultSyncer)
	}{
		{"write fault", func(s *faultSyncer) { s.failWrite = 3 }},
		{"torn write fault", func(s *faultSyncer) { s.failWrite, s.partialWrite = 3, true }},
		{"sync fault", func(s *faultSyncer) { s.failSync = 3 }},
	} {
		t.Run(tc.name+" latches, file replayable", func(t *testing.T) {
			path := newPath(t, nil)
			l, _ := open(t, path, openFault(tc.arm)) // call 1 is the magic
			if err := l.Append(frames[0]); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(frames[1]); err == nil {
				t.Fatal("injected fault did not surface")
			}
			for name, err := range map[string]error{
				"Append": l.Append(frames[2]), "Sync": l.Sync(), "TruncateAt": l.TruncateAt(l.Size()),
			} {
				if !errors.Is(err, ErrLedgerFailed) {
					t.Fatalf("%s on a latched log: got %v, want ErrLedgerFailed", name, err)
				}
			}
			l.Close()
			l, got := open(t, path, DurableOptions{})
			defer l.Close()
			if len(got) < 1 || len(got) > 2 || string(got[0]) != "one" {
				t.Fatalf("after the fault the file replays to %q, want [one] or [one two]", got)
			}
		})
	}
}

// FuzzLogReplay opens arbitrary bytes after a valid magic: open never
// panics, the accepted prefix is frame-aligned, and reopening the
// repaired file accepts exactly the same frames.
func FuzzLogReplay(f *testing.F) {
	for _, name := range []string{"torn.wal", "compacted.wal", "compacted.wal.snap"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[len(walMagic):])
	}
	f.Add([]byte{})
	// What an open or crashed file holds under the default writer: whole
	// frames, or whole frames and a torn one, ahead of a zero tail.
	whole := append(Frame(nil, []byte("one")), Frame(nil, []byte("two"))...)
	zeros := make([]byte, 64)
	f.Add(append(whole[:len(whole):len(whole)], zeros...))
	f.Add(append(append(whole[:len(whole):len(whole)], Frame(nil, []byte("three"))[:6]...), zeros...))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, append([]byte(testMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var first, second [][]byte
		l, err := OpenLog(path, testMagic, nil, DurableOptions{Fsync: FsyncOff}, collect(&first))
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		want := []byte(testMagic)
		for _, p := range first {
			want = Frame(want, p)
		}
		if l.Size() != int64(len(want)) || !bytes.HasPrefix(append([]byte(testMagic), tail...), want) {
			t.Fatalf("accepted %d frames but Size %d is not their frame-aligned prefix (%d)", len(first), l.Size(), len(want))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if b := readFile(t, path); !bytes.Equal(b, want) {
			t.Fatalf("repaired file is %d bytes, want the %d-byte accepted prefix", len(b), len(want))
		}
		l, err = OpenLog(path, testMagic, nil, DurableOptions{Fsync: FsyncOff}, collect(&second))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l.Close()
		if len(second) != len(first) {
			t.Fatalf("reopen accepted %d frames, first open %d", len(second), len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("frame %d differs across reopen", i)
			}
		}
	})
}
