package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Set-up time is reported at a reference host speed.  On a shared VM the
// host's speed swings by tens of percent within minutes, and set-up time
// swings with it.  Just before every timed set-up, hostSpeed times a fixed
// workload that shares no code with the program, and the set-up time is
// scaled by calRef over that time: a slower program still reads slower, a
// slower host does not.  Over 15 minutes of alternating calibrations and
// grid passes on a 2-vCPU VM, the spread (IQR over median of 10 s blocks)
// was 0.168 for the pass time and 0.060 for the pass time over the
// calibration time.
//
// calRef is the calibration time the set-up time is scaled to, about the
// median of hostSpeed on the 2-vCPU Xeon VM of the committed results when
// nothing else ran on it.
const calRef = time.Millisecond

// hostSpeed returns the median of three calibration timings.  Each starts
// from a collected heap, so no collection lands in some timings and not in
// others.
func hostSpeed() time.Duration {
	var ds [3]time.Duration
	for i := range ds {
		runtime.GC()
		ds[i] = calibrate()
	}
	sort.Slice(ds[:], func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1]
}

// calibrate runs the calibration workload on every CPU at once, as the
// set-ups use them, and returns its wall time.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibrationWork()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calItem is one record of the calibration workload.
type calItem struct {
	K    int
	Name string
	V    []int
}

// calibrationWork allocates, hashes, sorts and encodes a fixed set of
// records, a mix like the program's own.
func calibrationWork() {
	r := rand.New(rand.NewSource(1))
	items := make([]*calItem, 3000)
	byKey := make(map[int]*calItem, len(items))
	for i := range items {
		it := &calItem{K: r.Intn(1 << 20), Name: strconv.Itoa(i), V: make([]int, 8)}
		for j := range it.V {
			it.V[j] = r.Int()
		}
		items[i] = it
		byKey[it.K] = it
	}
	sort.Slice(items, func(a, b int) bool { return items[a].K < items[b].K })
	json.Marshal(items[:500]) // plain structs always encode
}
