package main

import (
	"reflect"
	"testing"
)

var testKernels = []string{"BP", "BFS", "KM"}

func TestJobMixSameSeedSameSequence(t *testing.T) {
	a, b := jobMix(7, 2, testKernels), jobMix(7, 2, testKernels)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job sequences")
	}
	if c := jobMix(8, 2, testKernels); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same job sequence")
	}
}

func TestJobMixFreshNeverRepeatsACell(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seen := map[string]bool{}
		fresh := 0
		for _, seq := range jobMix(seed, 2, testKernels) {
			for _, j := range seq {
				if !j.Fresh {
					continue
				}
				k := cellKey(j.Spec)
				if seen[k] {
					t.Fatalf("seed %d: fresh spec reuses cell %s", seed, k)
				}
				seen[k] = true
				fresh++
			}
		}
		want := len(testKernels) * len(mixModes) * len(mixTraceLens) * len(mixFabrics)
		if fresh != want {
			t.Errorf("seed %d: %d fresh cells, want the whole pool of %d", seed, fresh, want)
		}
	}
}

func TestJobMixCachedIsAnExactEarlierRepeat(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for c, seq := range jobMix(seed, 2, testKernels) {
			if len(seq) == 0 || !seq[0].Fresh {
				t.Fatalf("seed %d client %d: sequence must open with a fresh job", seed, c)
			}
			earlier := map[string]bool{}
			cached := 0
			for i, j := range seq {
				k := cellKey(j.Spec)
				if !j.Fresh {
					cached++
					if !earlier[k] {
						t.Fatalf("seed %d client %d job %d: cached spec %s was not submitted earlier by this client", seed, c, i, k)
					}
				}
				earlier[k] = true
			}
			if want := len(seq) / cachedEvery; cached != want {
				t.Errorf("seed %d client %d: %d of %d jobs cached, want %d", seed, c, cached, len(seq), want)
			}
		}
	}
}

func TestJobMixRoundsCoverEveryStratum(t *testing.T) {
	// The first round of the pool, dealt across both clients, holds each
	// (kernel, mode) pair exactly once.
	seqs := jobMix(3, 2, testKernels)
	strata := len(testKernels) * len(mixModes)
	count := map[string]int{}
	for _, seq := range seqs {
		n := 0
		for _, j := range seq {
			if j.Fresh && n < strata/2 {
				count[j.Spec.Bench+"/"+j.Spec.Mode]++
				n++
			}
		}
	}
	if len(count) != strata {
		t.Fatalf("first round covers %d strata, want %d", len(count), strata)
	}
	for k, n := range count {
		if n != 1 {
			t.Errorf("stratum %s drawn %d times in the first round", k, n)
		}
	}
}
