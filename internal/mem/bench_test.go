package mem

import "testing"

func BenchmarkAllocFreeBase(b *testing.B) {
	a := NewAllocator(256 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := a.Alloc(0, PreferZero, TagAnon)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(blk.Head, 0, i%2 == 0)
	}
}

func BenchmarkAllocFreeHuge(b *testing.B) {
	a := NewAllocator(256 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := a.Alloc(HugeOrder, PreferZero, TagAnon)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(blk.Head, HugeOrder, true)
	}
}

func BenchmarkPrezeroCycle(b *testing.B) {
	a := NewAllocator(256 << 20)
	blk, _ := a.Alloc(MaxOrder, PreferZero, TagAnon)
	a.Free(blk.Head, MaxOrder, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head, order, ok := a.PopNonZeroBlockUpTo(HugeOrder)
		if !ok {
			// Backlog drained: dirty one block again.
			blk, _ := a.Alloc(HugeOrder, PreferNonZero, TagAnon)
			a.Free(blk.Head, HugeOrder, true)
			continue
		}
		a.InsertZeroBlock(head, order)
	}
}

func BenchmarkFMFI(b *testing.B) {
	a := NewAllocator(256 << 20)
	var blocks []Block
	for {
		blk, err := a.Alloc(0, PreferZero, TagAnon)
		if err != nil {
			break
		}
		blocks = append(blocks, blk)
	}
	for i, blk := range blocks {
		if i%2 == 0 {
			a.Free(blk.Head, 0, true)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.FMFI(HugeOrder)
	}
}

func BenchmarkCompactionPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := NewAllocator(64 << 20)
		a.SetMover(moverFunc(func(old, new FrameID) bool { return true }))
		var blocks []Block
		for {
			blk, err := a.Alloc(0, PreferZero, TagAnon)
			if err != nil {
				break
			}
			blocks = append(blocks, blk)
		}
		for j, blk := range blocks {
			if j%8 != 0 {
				a.Free(blk.Head, 0, true)
			}
		}
		b.StartTimer()
		a.Compact(8)
	}
}

// BenchmarkCompactFail times the failed-promotion path: a Compact(1) pass
// over a 1/12-scale (8 GB) machine where no chunk can be compacted. Every
// chunk holds anonymous frames with every 7th frame free, plus one kernel
// frame in its last slot that pins it.
func BenchmarkCompactFail(b *testing.B) {
	a := NewAllocator(8 << 30)
	a.SetMover(moverFunc(func(old, new FrameID) bool { return true }))
	for {
		if _, err := a.Alloc(0, PreferZero, TagAnon); err != nil {
			break
		}
	}
	for id := FrameID(0); id < FrameID(a.TotalPages()); id++ {
		switch {
		case id%HugePages == HugePages-1:
			a.RetagFrame(id, TagKernel)
		case id%7 == 0:
			a.Free(id, 0, true)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := a.Compact(1); res.BlocksBuilt != 0 {
			b.Fatalf("built %d blocks on a pinned machine", res.BlocksBuilt)
		}
	}
}
