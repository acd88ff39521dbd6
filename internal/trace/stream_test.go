package trace_test

import (
	"testing"

	"xeonomp/internal/profiles"
	"xeonomp/internal/trace"
)

// streamHash folds one record into h: FNV-1a over the record's five
// fields as 64-bit words.
func streamHash(h uint64, in *trace.Instr) uint64 {
	taken := uint64(0)
	if in.Taken {
		taken = 1
	}
	for _, v := range [...]uint64{uint64(in.Kind), in.PC, in.Addr, taken, in.Target} {
		h = (h ^ v) * 0x100000001b3
	}
	return h
}

// TestStreamPinned pins the first 2^20 records of both threads of every
// profile's stream (two-thread layout, scale 1, seed 1). The instruction
// stream is what every simulated counter is computed from, so a change of
// any of these hashes is a change of the goldens. The constants were
// computed before the stream was read through NextKind, Addr and Branch,
// from the generator that built each record in one call.
func TestStreamPinned(t *testing.T) {
	want := map[string][2]uint64{
		"BT": {0x9702d7ee94b650d0, 0x2c9a8376df68d8f7},
		"CG": {0xe4ae45e59c315514, 0x321d517618a26750},
		"EP": {0xabb4a0fb8d9416ca, 0xb7091d1f4d4cda92},
		"FT": {0x791f639484f87508, 0xffb4529548967c9e},
		"IS": {0xbef7e568744484dc, 0xa9bf5a36215226f7},
		"LU": {0xa053803dd84af68e, 0x8c04fb18341fb402},
		"MG": {0x06fe8195f806185e, 0xbf86939df1930f2c},
		"SP": {0xcd5ad3c32b648080, 0x09cc40fceeb74bbb},
	}
	const records = 1 << 20
	for _, p := range profiles.All() {
		layout, err := p.Layout(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]uint64
		for tid := range got {
			g, err := p.Generator(layout, tid, 2, 1.0, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := uint64(0xcbf29ce484222325)
			var in trace.Instr
			for i := 0; i < records; i++ {
				if !g.Next(&in) {
					t.Fatalf("%s t%d: stream ended after %d records", p.Name, tid, i)
				}
				h = streamHash(h, &in)
			}
			got[tid] = h
		}
		if w, ok := want[p.Name]; !ok || got != w {
			t.Errorf("%s: stream hashes %#x, %#x; want %#x, %#x", p.Name, got[0], got[1], w[0], w[1])
		}
	}
}
