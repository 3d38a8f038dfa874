package cpu

import (
	"fmt"
	"sync"

	"lofat/internal/asm"
	"lofat/internal/mem"
)

// Machine bundles a loaded program with its memory and core, ready to run.
type Machine struct {
	CPU      *CPU
	Mem      *mem.Memory
	Program  *asm.Program
	Entry    uint32
	StackTop uint32

	pool *sync.Pool // the pool AcquireMachine drew it from; nil if loaded directly
}

// Reset restores the machine to its just-loaded state: all segments
// re-zeroed (dirty windows only), the text and data images re-installed,
// and the core reset to the entry point. The predecoded instruction
// cache is retained — the rx text image cannot have changed.
func (m *Machine) Reset() error {
	m.Mem.ResetData()
	if err := m.Mem.LoadImage(m.Program.TextBase, m.Program.Text); err != nil {
		return err
	}
	if len(m.Program.Data) > 0 {
		if err := m.Mem.LoadImage(m.Program.DataBase, m.Program.Data); err != nil {
			return err
		}
	}
	m.CPU.Reset(m.Entry, m.StackTop)
	return nil
}

// LoadOptions tune the memory map built around an assembled program.
type LoadOptions struct {
	// BSSSize is extra zeroed rw space mapped after the initialised
	// data image (default 64 KiB).
	BSSSize int
	// StackSize is the size of the stack segment (default 64 KiB).
	StackSize int
	// StackBase is the base address of the stack segment.
	StackBase uint32
	// EntryLabel is the label execution starts at (default "main",
	// falling back to the first text address).
	EntryLabel string
}

func (o *LoadOptions) fill() {
	if o.BSSSize == 0 {
		o.BSSSize = 64 << 10
	}
	if o.StackSize == 0 {
		o.StackSize = 64 << 10
	}
	if o.StackBase == 0 {
		o.StackBase = 0x7FF0_0000
	}
	if o.EntryLabel == "" {
		o.EntryLabel = "main"
	}
}

// Load builds the embedded memory map for an assembled program —
// rx text, rw data+bss, rw stack — loads the images, and returns a
// reset Machine. It is the trusted-boot step of the paper's model: the
// binary in rx memory is exactly the statically-attested image.
func Load(p *asm.Program, opts LoadOptions) (*Machine, error) {
	opts.fill()
	m := mem.New()

	textSize := len(p.Text)
	if textSize == 0 {
		return nil, fmt.Errorf("cpu: load: empty text segment")
	}
	if _, err := m.Map("text", p.TextBase, textSize, mem.PermR|mem.PermX); err != nil {
		return nil, err
	}
	dataSize := len(p.Data) + opts.BSSSize
	if _, err := m.Map("data", p.DataBase, dataSize, mem.PermR|mem.PermW); err != nil {
		return nil, err
	}
	if _, err := m.Map("stack", opts.StackBase, opts.StackSize, mem.PermR|mem.PermW); err != nil {
		return nil, err
	}
	if err := m.LoadImage(p.TextBase, p.Text); err != nil {
		return nil, err
	}
	if len(p.Data) > 0 {
		if err := m.LoadImage(p.DataBase, p.Data); err != nil {
			return nil, err
		}
	}

	entry, ok := p.Entry(opts.EntryLabel)
	if !ok {
		entry = p.TextBase
	}
	stackTop := opts.StackBase + uint32(opts.StackSize) - 16

	c := New(m)
	// The rx text image is immutable for the whole run (the adversary
	// cannot write executable memory), so decode it exactly once.
	c.Predecode(p.TextBase, p.Text)
	c.Reset(entry, stackTop)
	return &Machine{CPU: c, Mem: m, Program: p, Entry: entry, StackTop: stackTop}, nil
}

// machineKey identifies a pool of interchangeable machines: same
// program image, same memory map.
type machineKey struct {
	prog *asm.Program
	opts LoadOptions
}

// machinePools maps each machineKey to its pool of *Machine. The map is
// typed, so a lookup hashes the key with compiler-generated code rather
// than through an interface; entries are only ever added.
var machinePools = struct {
	sync.RWMutex
	m map[machineKey]*sync.Pool
}{m: make(map[machineKey]*sync.Pool)}

// machinePool returns the pool for key, creating it on first use.
func machinePool(key machineKey) *sync.Pool {
	machinePools.RLock()
	pool := machinePools.m[key]
	machinePools.RUnlock()
	if pool != nil {
		return pool
	}
	machinePools.Lock()
	defer machinePools.Unlock()
	if pool = machinePools.m[key]; pool == nil {
		pool = &sync.Pool{}
		machinePools.m[key] = pool
	}
	return pool
}

// AcquireMachine returns a reset, ready-to-run machine for the program,
// reusing a pooled instance — memory map, zeroed segments, predecoded
// instruction cache — when one is available. Repeated measurements of
// the same program (fleet sweeps, golden-run verification) skip the
// per-run map/decode cost entirely. Release with ReleaseMachine.
func AcquireMachine(p *asm.Program, opts LoadOptions) (*Machine, error) {
	opts.fill()
	pool := machinePool(machineKey{prog: p, opts: opts})
	if m, _ := pool.Get().(*Machine); m != nil {
		if err := m.Reset(); err != nil {
			return nil, err
		}
		return m, nil
	}
	m, err := Load(p, opts)
	if err != nil {
		return nil, err
	}
	m.pool = pool
	return m, nil
}

// ReleaseMachine returns a machine obtained from AcquireMachine to its
// pool. The machine must not be used afterwards. Trace attachments and
// input are dropped so the pool retains no caller references.
func ReleaseMachine(m *Machine) {
	if m == nil || m.pool == nil {
		return
	}
	m.CPU.TraceBatch = nil
	m.CPU.TraceCFOnly = false
	m.CPU.Input = nil
	m.CPU.IRQ = IRQSchedule{}
	m.pool.Put(m)
}

// MustLoadSource assembles and loads source, panicking on error; for
// tests and examples with known-good programs.
func MustLoadSource(source string) *Machine {
	p, err := asm.Assemble(source)
	if err != nil {
		panic(err)
	}
	mach, err := Load(p, LoadOptions{})
	if err != nil {
		panic(err)
	}
	return mach
}
