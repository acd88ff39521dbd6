// Package config defines the eight hardware configurations of the paper's
// Table 1. A configuration names the Hyper-Threading state, the number of
// application threads, and the number of physical chips in use, and lists
// exactly which hardware contexts the kernel's maxcpus-style masking leaves
// enabled, using the paper's A0..A7 (HT on) and B0..B3 (HT off) labels.
package config

import (
	"fmt"
	"strconv"

	"xeonomp/internal/cpu"
	"xeonomp/internal/jsonfmt"
	"xeonomp/internal/machine"
)

// Arch is the architectural class a configuration exercises.
type Arch string

// Architectural classes from Table 1.
const (
	Serial Arch = "Serial"
	SMT    Arch = "SMT"
	CMP    Arch = "CMP"
	CMT    Arch = "CMT"
	SMP    Arch = "SMP"
	SMTSMP Arch = "SMT-based SMP"
	CMPSMP Arch = "CMP-based SMP"
	CMTSMP Arch = "CMT-based SMP"
)

// CtxID addresses one hardware context by topology coordinates.
type CtxID struct {
	Chip, Core, Thread int
}

// Configuration is one row of Table 1.
type Configuration struct {
	Name     string  // e.g. "HT on -4-1"
	Arch     Arch    // architecture the row represents
	HT       bool    // Hyper-Threading enabled
	Threads  int     // application threads used in single-program runs
	Chips    int     // physical chips in use
	Contexts []CtxID // enabled hardware contexts
	Labels   []string
}

// String returns the Table-1 terminology.
func (c Configuration) String() string { return c.Name }

// AppendJSON appends json.Marshal(c) to b: the fields in declaration
// order under their Go names, null for a nil slice. The run-cache key
// and payload embed these bytes, so they must never change without a
// schema bump there.
func (c Configuration) AppendJSON(b []byte) []byte {
	b = append(b, `{"Name":`...)
	b = jsonfmt.AppendString(b, c.Name)
	b = append(b, `,"Arch":`...)
	b = jsonfmt.AppendString(b, string(c.Arch))
	b = append(b, `,"HT":`...)
	b = strconv.AppendBool(b, c.HT)
	b = append(b, `,"Threads":`...)
	b = strconv.AppendInt(b, int64(c.Threads), 10)
	b = append(b, `,"Chips":`...)
	b = strconv.AppendInt(b, int64(c.Chips), 10)
	b = append(b, `,"Contexts":`...)
	if c.Contexts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range c.Contexts {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Chip":`...)
			b = strconv.AppendInt(b, int64(id.Chip), 10)
			b = append(b, `,"Core":`...)
			b = strconv.AppendInt(b, int64(id.Core), 10)
			b = append(b, `,"Thread":`...)
			b = strconv.AppendInt(b, int64(id.Thread), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Labels":`...)
	if c.Labels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, l := range c.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonfmt.AppendString(b, l)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// ScanJSON reads a Configuration in AppendJSON's layout from s.
func ScanJSON(s *jsonfmt.Scanner) Configuration {
	var c Configuration
	s.Lit(`{"Name":`)
	c.Name = s.Str()
	s.Lit(`,"Arch":`)
	c.Arch = Arch(s.Str())
	s.Lit(`,"HT":`)
	c.HT = s.Bool()
	s.Lit(`,"Threads":`)
	c.Threads = s.Int()
	s.Lit(`,"Chips":`)
	c.Chips = s.Int()
	s.Lit(`,"Contexts":`)
	c.Contexts = jsonfmt.List(s, scanCtxID)
	s.Lit(`,"Labels":`)
	c.Labels = jsonfmt.List(s, (*jsonfmt.Scanner).Str)
	s.Lit("}")
	return c
}

func scanCtxID(s *jsonfmt.Scanner) CtxID {
	var id CtxID
	s.Lit(`{"Chip":`)
	id.Chip = s.Int()
	s.Lit(`,"Core":`)
	id.Core = s.Int()
	s.Lit(`,"Thread":`)
	id.Thread = s.Int()
	s.Lit("}")
	return id
}

// Apply masks the machine so that exactly this configuration's contexts are
// enabled (the kernel maxcpus= emulation from the paper's methodology).
func (c Configuration) Apply(m *machine.Machine) ([]*cpu.Context, error) {
	m.DisableAll()
	out := make([]*cpu.Context, 0, len(c.Contexts))
	for _, id := range c.Contexts {
		x, err := m.Context(id.Chip, id.Core, id.Thread)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", c.Name, err)
		}
		x.Enabled = true
		out = append(out, x)
	}
	return out, nil
}

func ids(list ...[3]int) []CtxID {
	out := make([]CtxID, len(list))
	for i, v := range list {
		out[i] = CtxID{Chip: v[0], Core: v[1], Thread: v[2]}
	}
	return out
}

// Table1 returns the paper's eight configurations, in Table-1 order.
func Table1() []Configuration {
	return []Configuration{
		{
			Name: "Serial", Arch: Serial, HT: false, Threads: 1, Chips: 1,
			Contexts: ids([3]int{0, 0, 0}),
			Labels:   []string{"B0"},
		},
		{
			Name: "HT on -2-1", Arch: SMT, HT: true, Threads: 2, Chips: 1,
			Contexts: ids([3]int{0, 0, 0}, [3]int{0, 0, 1}),
			Labels:   []string{"A0", "A1"},
		},
		{
			Name: "HT off -2-1", Arch: CMP, HT: false, Threads: 2, Chips: 1,
			Contexts: ids([3]int{0, 0, 0}, [3]int{0, 1, 0}),
			Labels:   []string{"B0", "B1"},
		},
		{
			Name: "HT on -4-1", Arch: CMT, HT: true, Threads: 4, Chips: 1,
			Contexts: ids([3]int{0, 0, 0}, [3]int{0, 0, 1}, [3]int{0, 1, 0}, [3]int{0, 1, 1}),
			Labels:   []string{"A0", "A1", "A2", "A3"},
		},
		{
			Name: "HT off -2-2", Arch: SMP, HT: false, Threads: 2, Chips: 2,
			Contexts: ids([3]int{0, 0, 0}, [3]int{1, 0, 0}),
			Labels:   []string{"B0", "B2"},
		},
		{
			Name: "HT on -4-2", Arch: SMTSMP, HT: true, Threads: 4, Chips: 2,
			Contexts: ids([3]int{0, 0, 0}, [3]int{0, 0, 1}, [3]int{1, 0, 0}, [3]int{1, 0, 1}),
			Labels:   []string{"A0", "A1", "A4", "A5"},
		},
		{
			Name: "HT off -4-2", Arch: CMPSMP, HT: false, Threads: 4, Chips: 2,
			Contexts: ids([3]int{0, 0, 0}, [3]int{0, 1, 0}, [3]int{1, 0, 0}, [3]int{1, 1, 0}),
			Labels:   []string{"B0", "B1", "B2", "B3"},
		},
		{
			Name: "HT on -8-2", Arch: CMTSMP, HT: true, Threads: 8, Chips: 2,
			Contexts: ids(
				[3]int{0, 0, 0}, [3]int{0, 0, 1}, [3]int{0, 1, 0}, [3]int{0, 1, 1},
				[3]int{1, 0, 0}, [3]int{1, 0, 1}, [3]int{1, 1, 0}, [3]int{1, 1, 1}),
			Labels: []string{"A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"},
		},
	}
}

// ByName returns the configuration with the given Table-1 name.
func ByName(name string) (Configuration, error) {
	for _, c := range Table1() {
		if c.Name == name {
			return c, nil
		}
	}
	return Configuration{}, fmt.Errorf("config: unknown configuration %q", name)
}

// ByArch returns the configuration for the given architecture class.
func ByArch(a Arch) (Configuration, error) {
	for _, c := range Table1() {
		if c.Arch == a {
			return c, nil
		}
	}
	return Configuration{}, fmt.Errorf("config: unknown architecture %q", a)
}

// Multithreaded returns the seven non-serial configurations, the set
// compared in Table 2 and Figures 2-5.
func Multithreaded() []Configuration {
	var out []Configuration
	for _, c := range Table1() {
		if c.Arch != Serial {
			out = append(out, c)
		}
	}
	return out
}

// Groups returns the paper's Section-4 comparison groups: group 1 is the
// SMT-vs-serial pair, group 2 compares HT on/off on one chip, group 3 on
// two chips at half usage, and group 4 at full machine load.
func Groups() map[int][]Arch {
	return map[int][]Arch{
		1: {Serial, SMT},
		2: {CMP, CMT},
		3: {SMP, SMTSMP},
		4: {CMPSMP, CMTSMP},
	}
}
