package main

import (
	"math"
	"reflect"
	"testing"

	"ifdk/internal/service"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.plan(7, 1), w.plan(7, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed and round gave two different plans", w.name)
		}
		if reflect.DeepEqual(a.lists, w.plan(8, 1).lists) {
			t.Errorf("%s: seeds 7 and 8 gave the same lists", w.name)
		}
		if reflect.DeepEqual(a.lists, w.plan(7, 0).lists) && w.fleet {
			t.Errorf("%s: rounds 0 and 1 of one seed gave the same lists", w.name)
		}
	}
}

// A cold job must be one the result cache cannot serve: no two cold specs of
// a round — nor a cold spec and a warm one — may share a cache key.
func TestColdSpecsNeverShareACacheKey(t *testing.T) {
	for _, w := range workloads {
		p := w.plan(3, 0)
		seen := map[string]string{}
		claim := func(what string, spec service.Spec) {
			key, err := service.SpecKey(spec)
			if err != nil {
				t.Fatalf("%s: %s %+v is not a valid spec: %v", w.name, what, spec, err)
			}
			if prior, dup := seen[key]; dup {
				t.Errorf("%s: %s %+v shares its cache key with %s", w.name, what, spec, prior)
			}
			seen[key] = what
		}
		for _, spec := range p.warm {
			claim("warm job", spec)
		}
		cold := 0
		for _, list := range p.lists {
			for _, it := range list {
				if it.repeatOf < 0 {
					claim("cold job", it.spec)
					cold++
				}
			}
		}
		if cold == 0 {
			t.Errorf("%s: no cold jobs", w.name)
		}
	}
}

func TestFleetMixedRepeatsHalf(t *testing.T) {
	w, err := workloadByName("fleet_mixed")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		p := w.plan(seed, 0)
		if len(p.lists) != w.clients {
			t.Fatalf("seed %d: %d lists for %d clients", seed, len(p.lists), w.clients)
		}
		for c, list := range p.lists {
			repeats, cold, verified := 0, 0, 0
			for i, it := range list {
				if len(it.slices) != fleetSliceReads {
					t.Fatalf("seed %d client %d item %d: %d slice reads", seed, c, i, len(it.slices))
				}
				if it.repeatOf < 0 {
					cold++
					if it.spec.Verify {
						verified++
					}
					continue
				}
				repeats++
				orig := list[it.repeatOf]
				if it.repeatOf >= i || orig.repeatOf >= 0 || orig.spec != it.spec {
					t.Fatalf("seed %d client %d item %d: repeatOf %d is not an earlier cold job with the same spec", seed, c, i, it.repeatOf)
				}
			}
			if share := float64(repeats) / float64(len(list)); math.Abs(share-0.5) > 0.01 {
				t.Errorf("seed %d client %d: repeat share %.4f of %d items, want within 0.01 of one half", seed, c, share, len(list))
			}
			if share := float64(verified) / float64(cold); math.Abs(share-1.0/fleetVerifyEach) > 0.02 {
				t.Errorf("seed %d client %d: %.4f of cold jobs ask for verification, want 1 in %d", seed, c, share, fleetVerifyEach)
			}
			// The share must hold for what a round actually gets through,
			// not only for the whole list.
			repeats = 0
			for _, it := range list[:200] {
				if it.repeatOf >= 0 {
					repeats++
				}
			}
			if share := float64(repeats) / 200; math.Abs(share-0.5) > 0.02 {
				t.Errorf("seed %d client %d: repeat share of the first 200 items is %.3f", seed, c, share)
			}
		}
	}
}

// The mix of job costs belongs to the workload and not to the seed: wherever
// a client's time runs out, it has run every shape equally often.
func TestFleetMixedRunsEveryShapeEquallyOften(t *testing.T) {
	w, _ := workloadByName("fleet_mixed")
	for seed := int64(1); seed <= 3; seed++ {
		for c, list := range w.plan(seed, 1).lists {
			count := map[shape]int{}
			for i, it := range list {
				if it.repeatOf < 0 {
					count[shapeOf(it.spec)]++
				}
				if len(count) < 48 {
					continue // inside the first cycle
				}
				lo, hi := len(list), 0
				for _, n := range count {
					lo, hi = min(lo, n), max(hi, n)
				}
				if hi-lo > 1 {
					t.Fatalf("seed %d client %d: after %d items one shape has run %d times and another %d", seed, c, i+1, hi, lo)
				}
			}
			if len(count) != 48 || len(list) < 500 {
				t.Errorf("seed %d client %d: %d shapes in a list of %d items, want 48 in at least 500", seed, c, len(count), len(list))
			}
		}
	}
}

func TestShapeMedianCountsEveryShapeOnce(t *testing.T) {
	small, large := service.Spec{NX: 16, NP: 32, R: 2, C: 2}, service.Spec{NX: 32, NP: 64, R: 2, C: 2}
	var ss []sample
	for _, v := range []float64{1, 2, 3} {
		ss = append(ss, sample{item: item{spec: small}, job: v})
	}
	ss = append(ss, sample{item: item{spec: large}, job: 10})
	if got := shapeMedian(ss, func(s sample) float64 { return s.job }); got != 6 {
		t.Errorf("shapeMedian = %g, want (2 + 10) / 2", got)
	}
	if got := shapeMedian(ss[:3], func(s sample) float64 { return s.job }); got != 2 {
		t.Errorf("shapeMedian of one shape = %g, want its median 2", got)
	}
}

func TestWithholdTakesTheLastColdItems(t *testing.T) {
	w, _ := workloadByName("fleet_mixed")
	p := w.plan(1, 0)
	lists, held := withhold(p.lists, 8)
	if len(held) != 8 {
		t.Fatalf("withheld %d items, want 8", len(held))
	}
	kept := map[service.Spec]bool{}
	for _, it := range lists[0] {
		kept[it.spec] = true
	}
	for _, it := range held {
		if it.repeatOf >= 0 || kept[it.spec] {
			t.Errorf("withheld item %+v is a repeat or still in client 0's list", it.spec)
		}
	}
	if !reflect.DeepEqual(lists[1], p.lists[1]) {
		t.Error("withhold touched another client's list")
	}
}
