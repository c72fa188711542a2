package main

import (
	"fmt"
	"math/rand"

	"dynaspam/internal/jobs"
)

// The jobs-mixed traffic: each closed-loop client submits its own seeded
// sequence of one-cell specs. Every third submission repeats a seeded pick
// among the client's earlier specs exactly; since that spec's job already
// finished (the client waits for each job), the repeat is a memo-cache hit.
// The rest take cells never run before in the whole run. The fixed
// fresh, fresh, cached rhythm keeps the cached share the same in every run
// of every seed.
//
// Fresh cells are drawn in rounds: each round visits every (kernel, mode)
// stratum once in a seeded order, with a seeded (tracelen, fabrics) pick
// that the stratum has not used yet. Every seed therefore runs nearly the
// same mix of kernels and modes, which keeps turnaround medians comparable
// across seeds.

var (
	mixModes     = []string{"baseline", "mapping", "accel-nospec", "accel-spec"}
	mixTraceLens = []int{16, 20, 24, 28, 32, 36, 40}
	mixFabrics   = []int{1, 2, 3, 4}
)

// cachedEvery makes every cachedEvery-th submission of a client a repeat.
const cachedEvery = 3

// mixJob is one submission of the closed loop.
type mixJob struct {
	Spec jobs.Spec
	// Fresh marks a spec whose cell has never run; a repeat is a cached job.
	Fresh bool
}

// cellKey identifies the simulation cell of a one-kernel spec.
func cellKey(s jobs.Spec) string {
	return fmt.Sprintf("%s/%s/len=%d/fabrics=%d", s.Bench, s.Mode, s.TraceLen, s.Fabrics)
}

// jobMix returns one finite submission sequence per client. Fresh cells
// are dealt round-robin from the stratified pool, so no two clients (and
// no two submissions) ever share a fresh cell; a client's sequence ends
// when its share of the pool is used up.
func jobMix(seed int64, clients int, kernels []string) [][]mixJob {
	rng := rand.New(rand.NewSource(seed))

	type stratum struct {
		bench, mode string
		combos      [][2]int // (tracelen, fabrics), seeded order
	}
	var strata []stratum
	for _, k := range kernels {
		for _, m := range mixModes {
			s := stratum{bench: k, mode: m}
			for _, l := range mixTraceLens {
				for _, f := range mixFabrics {
					s.combos = append(s.combos, [2]int{l, f})
				}
			}
			rng.Shuffle(len(s.combos), func(i, j int) { s.combos[i], s.combos[j] = s.combos[j], s.combos[i] })
			strata = append(strata, s)
		}
	}
	var pool []jobs.Spec
	rounds := len(mixTraceLens) * len(mixFabrics)
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(strata)) {
			s := strata[i]
			pool = append(pool, jobs.Spec{Bench: s.bench, Mode: s.mode, TraceLen: s.combos[r][0], Fabrics: s.combos[r][1]})
		}
	}

	seqs := make([][]mixJob, clients)
	for c := range seqs {
		var fresh []jobs.Spec
		for i := c; i < len(pool); i += clients {
			fresh = append(fresh, pool[i])
		}
		var seq []mixJob
		var earlier []jobs.Spec
		for len(fresh) > 0 {
			if len(seq)%cachedEvery == cachedEvery-1 {
				seq = append(seq, mixJob{Spec: earlier[rng.Intn(len(earlier))]})
				continue
			}
			seq = append(seq, mixJob{Spec: fresh[0], Fresh: true})
			earlier = append(earlier, fresh[0])
			fresh = fresh[1:]
		}
		seqs[c] = seq
	}
	return seqs
}
