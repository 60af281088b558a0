// Package kernel holds unit-consuming code: conversions between quantity
// types must go through the named helpers.
package kernel

import (
	"hawkeye/internal/mem"
	"hawkeye/internal/vmm"
)

func bad(p mem.Pages) mem.Bytes {
	return mem.Bytes(p) // want `direct conversion mem\.Pages -> mem\.Bytes`
}

func badShift(p mem.Pages) int64 {
	return int64(p) << 12 // want `mem\.Pages << 12 re-derives`
}

func badFactor(b mem.Bytes) mem.Pages {
	pages := b / 4096       // want `mem\.Bytes / 4096 re-derives`
	return mem.Pages(pages) // want `direct conversion mem\.Bytes -> mem\.Pages`
}

func badRegion(v vmm.VPN) vmm.RegionIndex {
	return vmm.RegionIndex(v >> 9) // want `vmm\.VPN >> 9 re-derives` `direct conversion vmm\.VPN -> vmm\.RegionIndex`
}

func good(p mem.Pages) mem.Bytes {
	return p.Bytes()
}

func goodRegions(r mem.Regions) mem.Pages {
	return r.Pages()
}

// goodSameUnit: a same-type conversion is a no-op, not a reinterpretation.
func goodSameUnit(b mem.Bytes) mem.Bytes {
	return mem.Bytes(b)
}

// goodPlainArith: plain integers may use any factor; only unit-typed
// quantities are protected.
func goodPlainArith(n int64) int64 {
	return n * 4096
}

// goodNonGeometry: unit arithmetic with non-geometry factors is fine
// (halving a byte budget does not re-derive page geometry).
func goodNonGeometry(b mem.Bytes) mem.Bytes {
	return b / 2
}
