package bufpool

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// TestGetPutClasses: Get rounds up to a power-of-two class, a returned
// buffer serves the next request of its class and never a larger one,
// and a buffer of any capacity is filed where it can serve.
func TestGetPutClasses(t *testing.T) {
	var p Pool[byte]
	b := p.Get(3000)
	if len(b) != 3000 || cap(b) != 4096 {
		t.Fatalf("Get(3000): len %d cap %d, want 3000 and the 4 KiB class", len(b), cap(b))
	}
	p.Put(b)
	if c := p.Get(2049); unsafe.SliceData(c) != unsafe.SliceData(b) || len(c) != 2049 {
		t.Fatal("a request in the same class did not reuse the returned buffer")
	}
	p.Put(b)
	if c := p.Get(4097); unsafe.SliceData(c) == unsafe.SliceData(b) {
		t.Fatal("a 4 KiB buffer served an 8 KiB request")
	}
	// A capacity between classes serves the class below it.
	odd := make([]byte, 0, 6000)
	p.Put(odd)
	if c := p.Get(4000); unsafe.SliceData(c) != unsafe.SliceData(odd) {
		t.Fatal("a 6000-byte buffer did not serve a 4 KiB-class request")
	}
	if p.Get(0) != nil {
		t.Fatal("Get(0) allocated")
	}
	// Below the smallest class a request still rounds up to it, and
	// smaller buffers are dropped.
	if c := p.Get(1); cap(c) != 1<<minClass {
		t.Fatalf("Get(1) cap %d, want %d", cap(c), 1<<minClass)
	}
	p.Put(make([]byte, 100))
	if len(p.free[6]) != 0 || len(p.free[minClass]) != 0 {
		t.Fatal("a buffer below the smallest class was kept")
	}

	var pts Pool[geom.Point]
	s := pts.Get(100) // 3 200 bytes: the 4 KiB class, 128 points
	if cap(s) != 128 {
		t.Fatalf("Get(100) points: cap %d, want 128", cap(s))
	}
}

// TestIdleBound: the pools together never hold more than MaxIdleBytes
// idle; a buffer past the bound is dropped, and taking buffers out makes
// room again. It puts about MaxIdleBytes of buffers, so -short skips it.
func TestIdleBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates MaxIdleBytes")
	}
	var a Pool[byte]
	var b Pool[geom.Point]
	const chunk = 4 << 20
	base := idle.Load()
	room := (MaxIdleBytes - base) / chunk
	for i := int64(0); i < room+2; i++ {
		a.Put(make([]byte, chunk))
	}
	if got, want := idle.Load(), base+room*chunk; got != want {
		t.Fatalf("idle %d bytes after putting past the bound, want %d (bound %d)", got, want, MaxIdleBytes)
	}
	b.Put(make([]geom.Point, chunk/32))
	if got := idle.Load(); got != base+room*chunk {
		t.Fatal("a second pool kept a buffer past the shared bound")
	}
	for i := int64(0); i < room; i++ {
		a.Get(chunk)
	}
	if idle.Load() != base {
		t.Fatalf("idle %d after taking every buffer back out, want %d", idle.Load(), base)
	}
	b.Put(make([]geom.Point, chunk/32))
	if idle.Load() != base+chunk {
		t.Fatal("freed room was not reused")
	}
	b.Get(chunk / 32)
}

// TestConcurrentOwnership: under concurrent Get and Put, a buffer is
// handed to one owner at a time — each goroutine stamps its buffer and
// finds the stamp intact before giving it back.
func TestConcurrentOwnership(t *testing.T) {
	var p Pool[uint64]
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func(stamp uint64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := p.Get(200 + (i*37)%900)
				for j := range s {
					s[j] = stamp
				}
				for j := range s {
					if s[j] != stamp {
						t.Errorf("buffer shared: element %d reads %d, owner %d", j, s[j], stamp)
						return
					}
				}
				p.Put(s)
			}
		}(uint64(g))
	}
	wg.Wait()
}
