package mem

import (
	"bytes"
	"sync"
	"testing"
)

// image returns a memory with three written pages (0, 1 and 2) filled with
// a byte pattern, and its contents as one slice.
func image() (*Memory, []byte) {
	m := New()
	want := make([]byte, 3*PageSize)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	m.StoreBytes(0, want)
	return m, want
}

// contents reads the first four pages of m (the last one never written by
// image).
func contents(m *Memory) []byte {
	got := make([]byte, 4*PageSize)
	m.LoadBytes(0, got)
	return got
}

// scribble writes into m with every write path: aligned and page-crossing
// Write, StoreByte, and a StoreBytes that runs from a shared page over the
// next shared page into a page no one has written.
func scribble(m *Memory, seed byte) {
	m.Write(16, 8, uint64(seed)*0x0101010101010101)
	m.Write(PageSize-3, 8, 0xdeadbeefcafebabe^uint64(seed))
	m.StoreByte(2*PageSize+5, seed)
	buf := make([]byte, PageSize+200)
	for i := range buf {
		buf[i] = seed ^ byte(i)
	}
	m.StoreBytes(2*PageSize-100, buf)
}

func TestCloneCopyOnWrite(t *testing.T) {
	src, want := image()
	want = append(want, make([]byte, PageSize)...)
	c := src.Clone()
	if !bytes.Equal(contents(c), want) {
		t.Fatal("clone does not read its source's contents")
	}

	scribble(c, 0x5a)
	if !bytes.Equal(contents(src), want) {
		t.Fatal("writes to a clone changed its source")
	}
	cloneWant := contents(c)
	if bytes.Equal(cloneWant, want) {
		t.Fatal("scribble wrote nothing")
	}

	// The other direction: the source writes after cloning, and a second
	// clone taken before that write keeps the old contents.
	c2 := src.Clone()
	scribble(src, 0xa5)
	if !bytes.Equal(contents(c2), want) {
		t.Fatal("writes to a source changed its clone")
	}
	if !bytes.Equal(contents(c), cloneWant) {
		t.Fatal("writes to a source changed an earlier clone")
	}

	// A clone of a clone is independent of both.
	c3 := c.Clone()
	scribble(c3, 0x11)
	if !bytes.Equal(contents(c), cloneWant) {
		t.Fatal("writes to a clone of a clone changed its source")
	}
	if !bytes.Equal(contents(c2), want) {
		t.Fatal("writes to a clone of a clone changed an unrelated clone")
	}
}

// TestCloneAfterWriteCache covers a source whose last-page cache holds an
// owned page when it is cloned: the next write must copy, not write
// through the cache into the shared page.
func TestCloneAfterWriteCache(t *testing.T) {
	src := New()
	src.Write(8, 8, 1)
	c := src.Clone()
	src.Write(8, 8, 2)
	if got := c.Read(8, 8); got != 1 {
		t.Fatalf("clone reads %d after its source wrote, want 1", got)
	}
	c.Read(8, 8) // the clone's cache now holds the shared page
	c.Write(8, 8, 3)
	if got := src.Read(8, 8); got != 2 {
		t.Fatalf("source reads %d after its clone wrote, want 2", got)
	}
}

func TestEqualChecksumAcrossSharedPages(t *testing.T) {
	a, _ := image()
	b := a.Clone()
	agree := func(what string, wantEqual bool) {
		t.Helper()
		if a.Equal(b) != wantEqual || b.Equal(a) != wantEqual {
			t.Fatalf("%s: Equal = %v/%v, want %v", what, a.Equal(b), b.Equal(a), wantEqual)
		}
		if (a.Checksum() == b.Checksum()) != wantEqual {
			t.Fatalf("%s: checksums %#x and %#x disagree with Equal = %v", what, a.Checksum(), b.Checksum(), wantEqual)
		}
	}
	agree("all pages shared", true)

	// Rewriting a byte with its own value copies the page but keeps the
	// contents: a copied page must compare by content.
	b.StoreByte(PageSize+1, b.LoadByte(PageSize+1))
	agree("one page copied, same contents", true)

	b.StoreByte(PageSize+1, b.LoadByte(PageSize+1)+1)
	agree("one page copied, different contents", false)
	b.StoreByte(PageSize+1, b.LoadByte(PageSize+1)-1)
	agree("one page written back", true)

	// A page only one side has, holding zeros, is equal to an absent one.
	b.Write(9*PageSize, 8, 0)
	agree("zero page on one side", true)
	a.Write(9*PageSize, 8, 7)
	agree("nonzero page on the other side", false)
}

// TestConcurrentClones clones one image from many goroutines, each of which
// then writes its own clone. Run under -race: a clone of an image that owns
// no page must not write to it.
func TestConcurrentClones(t *testing.T) {
	src, want := image()
	want = append(want, make([]byte, PageSize)...)
	img := src.Clone() // a clone owns no page
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := img.Clone()
				scribble(c, seed)
				if bytes.Equal(contents(c), want) {
					errs <- "a clone's writes did not land"
					return
				}
			}
		}(byte(g + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !bytes.Equal(contents(img), want) {
		t.Fatal("concurrent clones changed the shared image")
	}
}
