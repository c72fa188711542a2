// Customfabric: define a non-default fabric geometry, map a trace with both
// the naive and the resource-aware mappers, and inspect the resulting
// configuration — including the Figure 2(b) case where the naive mapper
// fails outright.
//
//	go run ./examples/customfabric
package main

import (
	"fmt"

	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
	"dynaspam/internal/mapper"
	"dynaspam/internal/memdep"
)

func main() {
	// A small fabric: 4 stripes of 2 int ALUs + 1 of everything else.
	var fu [isa.NumFUTypes]int
	fu[isa.FUIntALU] = 2
	fu[isa.FUIntMulDiv] = 1
	fu[isa.FUFPALU] = 1
	fu[isa.FUFPMulDiv] = 1
	fu[isa.FULdSt] = 1
	geom := fabric.Geometry{
		Stripes:       4,
		FUsPerStripe:  fu,
		PassRegsPerFU: 2,
		LiveInFIFOs:   8,
		LiveOutFIFOs:  8,
		FIFODepth:     4,
	}
	fmt.Printf("fabric: %d stripes x %d PEs, %d pass-register slots per stripe\n\n",
		geom.Stripes, geom.PEsPerStripe(), geom.RouteCapacity())

	// Figure 2(b): two single-live-in instructions followed by two
	// two-live-in instructions, all independent. Only the first stripe
	// has two input ports.
	trace := []mapper.TraceInst{
		{PC: 0, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(10), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1}},
		{PC: 1, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(11), Src1: isa.R(2), Src2: isa.RegInvalid, Imm: 1}},
		{PC: 2, Inst: isa.Inst{Op: isa.OpAdd, Dest: isa.R(12), Src1: isa.R(3), Src2: isa.R(4)}},
		{PC: 3, Inst: isa.Inst{Op: isa.OpAdd, Dest: isa.R(13), Src1: isa.R(5), Src2: isa.R(6)}},
	}

	fmt.Println("Figure 2(b) trace:")
	for i, ti := range trace {
		fmt.Printf("  %d: %s\n", i, ti.Inst)
	}
	fmt.Println()

	if _, err := mapper.MapNaive(trace, geom, 0, 4); err != nil {
		fmt.Printf("naive (program-order) mapper: %v\n", err)
	} else {
		fmt.Println("naive (program-order) mapper: mapped (unexpected!)")
	}

	cfg, err := mapper.MapStatic(trace, geom, 0, 4)
	if err != nil {
		fmt.Printf("resource-aware mapper: %v\n", err)
		return
	}
	fmt.Println("resource-aware mapper: mapped; placement:")
	for i := range cfg.Insts {
		mi := &cfg.Insts[i]
		fmt.Printf("  %-18s -> stripe %d, PE %d\n", mi.Inst, mi.Stripe, mi.PE)
	}

	// Execute one invocation: live-ins r1..r6 = 10,20,30,40,50,60.
	f := fabric.New(geom)
	f.Configure(cfg)
	liveIns := make([]uint64, len(cfg.LiveIns))
	for i, r := range cfg.LiveIns {
		liveIns[i] = uint64(10 * (int(r) % 64))
	}
	env := fabric.EvalEnv{
		ReadMem:     func(addr uint64) uint64 { return 0 },
		AccessMem:   func(addr uint64, write bool) int { return 2 },
		MemDep:      memdep.New(memdep.DefaultConfig()),
		Speculative: true,
	}
	res := f.Evaluate(liveIns, env)
	fmt.Printf("\ninvocation: latency %d cycles, live-outs:\n", res.Latency)
	for i, r := range cfg.LiveOuts {
		fmt.Printf("  %s = %d (ready at +%d)\n", r, int64(res.LiveOuts[i]), res.LiveOutDelay[i])
	}
}
