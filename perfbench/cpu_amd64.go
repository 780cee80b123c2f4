package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuModel reads the processor brand string with the CPUID instruction
// (leaves 0x80000002-4), so the host record needs no file outside the
// checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b [48]byte
	for i := uint32(0); i < 3; i++ {
		a, bx, c, d := cpuid(0x80000002+i, 0)
		for j, v := range []uint32{a, bx, c, d} {
			binary.LittleEndian.PutUint32(b[16*i+4*uint32(j):], v)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
}
