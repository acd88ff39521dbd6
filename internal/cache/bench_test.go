package cache

import (
	"testing"

	"xeonomp/internal/units"
)

// benchConfigs are the Paxville L1D and L2 geometries.
var benchConfigs = []Config{
	{Name: "L1D", Size: 16 * units.KiB, LineSize: 64, Assoc: 8},
	{Name: "L2", Size: 1 * units.MiB, LineSize: 64, Assoc: 8},
}

// benchAddrs returns n seeded addresses for cfg: 70% in a hot region of
// half the capacity, the rest anywhere in four times the capacity, so
// lookups both hit and miss and fills both refresh and evict (the mix of
// the perfbench cache probes).
func benchAddrs(cfg Config, n int) []uint64 {
	s := uint64(0x5eed)
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 2685821657736338717
	}
	size := uint64(cfg.Size)
	addrs := make([]uint64, n)
	for i := range addrs {
		if next()%10 < 7 {
			addrs[i] = next() % (size / 2)
		} else {
			addrs[i] = next() % (4 * size)
		}
	}
	return addrs
}

// benchCache returns a cache of cfg with its hot half resident.
func benchCache(cfg Config) *Cache {
	c := New(cfg)
	for a := uint64(0); a < uint64(cfg.Size)/2; a += uint64(cfg.LineSize) {
		c.Fill(a, false, false)
	}
	return c
}

var benchSink uint64

func BenchmarkLookup(b *testing.B) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.Name, func(b *testing.B) {
			addrs := benchAddrs(cfg, 1<<16)
			c := benchCache(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Lookup(addrs[i&(len(addrs)-1)], i%4 == 0).Hit {
					benchSink++
				}
			}
		})
	}
}

func BenchmarkFill(b *testing.B) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.Name, func(b *testing.B) {
			addrs := benchAddrs(cfg, 1<<16)
			c := benchCache(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += c.Fill(addrs[i&(len(addrs)-1)], i%4 == 0, false).EvictedAddr
			}
		})
	}
}
