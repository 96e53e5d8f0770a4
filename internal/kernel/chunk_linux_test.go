package kernel

import (
	"encoding/binary"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedPage maps two pages, makes the second PROT_NONE and returns the
// first: a load that reaches past the end of a slice ending on it faults.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	size := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[:size:size]
}

// atEnd copies sec to the last len(sec) bytes of page and returns them.
func atEnd(page, sec []byte) []byte {
	s := page[len(page)-len(sec):]
	copy(s, sec)
	return s
}

// wordsAtEnd copies words to the last 4·len(words) bytes of page and
// returns them as a []uint32 there.
func wordsAtEnd(page []byte, words []uint32) []uint32 {
	if len(words) == 0 {
		return nil
	}
	s := page[len(page)-4*len(words):]
	for i, w := range words {
		binary.LittleEndian.PutUint32(s[4*i:], w)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), len(words))
}

// Every section a chunk kernel reads, and MemberMasks' set, placed to end
// exactly where a PROT_NONE page begins: Unpack at every width 1–32 and
// item count 0–70, AscendingGapsInto at every width 0–64 and gap count
// 0–40, MemberMasks over
// 0–70 ids against limits either side of a word boundary, ids past the
// limit included. An over-read faults, and the fault is reported as the
// case that made it.
func TestChunkKernelsStayInsideTheirInput(t *testing.T) {
	src, ids, set := guardedPage(t), guardedPage(t), guardedPage(t)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	var what string
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", what, r)
		}
	}()
	rng := rand.New(rand.NewSource(30))

	for width := uint(1); width <= 32; width++ {
		for n := 0; n <= 70; n++ {
			items := make([]uint32, n)
			for i := range items {
				items[i] = uint32(rng.Uint64() >> (64 - width))
			}
			what = "Unpack"
			Unpack(make([]uint32, n), atEnd(src, packBits(items, width)), width)
		}
	}
	for width := uint(0); width <= 64; width++ {
		for n := 0; n <= 40; n++ {
			gaps := make([]uint64, n)
			for i := range gaps {
				gaps[i] = rng.Uint64() >> (64 - width)
			}
			what = "AscendingGapsInto"
			AscendingGapsInto(make([]float64, n+1), 1, atEnd(src, packBits(gaps, width)), width)
		}
	}
	for _, limit := range []uint32{1, 31, 32, 33, 64, 65} {
		bits := wordsAtEnd(set, memberSet(rng, limit, 0.5))
		for n := 0; n <= 70; n++ {
			words := make([]uint32, n)
			for i := range words {
				words[i] = limit - 1 + uint32(rng.Intn(3))
				if rng.Intn(4) == 0 {
					words[i] = ^uint32(0)
				}
			}
			what = "MemberMasks"
			MemberMasks(make([]uint8, (n+7)/8), wordsAtEnd(ids, words), bits, limit)
		}
	}
}
