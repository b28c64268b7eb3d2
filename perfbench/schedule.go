package main

import (
	"math/rand"
	"time"
)

// Every input of a run derives from its seed through these functions, so
// the same seed replays the same operations.

const (
	hotKeys   = 2048 // resolve-hot working set: half of loccache's default 4,096 entries
	zipfS     = 1.1
	opRing    = 1 << 16 // ops precomputed per client, replayed cyclically
	moveMean  = 50 * time.Millisecond
	watchRate = 10000 // paced watcher resolves per second, all clients together
)

// stream returns a PRNG for one named input stream of a run.
func stream(seed int64, name string, i int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h ^ int64(i)*0x9e3779b97f4a7c))
}

// hotSet picks the resolve-hot working set: hotKeys distinct indices into
// the resource keys, hottest first.
func hotSet(seed int64) []int32 {
	perm := stream(seed, "hotset", 0).Perm(nKeys)
	out := make([]int32, hotKeys)
	for i := range out {
		out[i] = int32(perm[i])
	}
	return out
}

// opSchedule returns client's resource-key indices for a workload:
// Zipf(1.1) over the hot set, or uniform over every key.
func opSchedule(workload string, seed int64, client int) []int32 {
	r := stream(seed, workload+"/ops", client)
	out := make([]int32, opRing)
	if workload == "resolve-hot" {
		hot := hotSet(seed)
		z := rand.NewZipf(r, zipfS, 1, hotKeys-1)
		for i := range out {
			out[i] = hot[z.Uint64()]
		}
		return out
	}
	for i := range out {
		out[i] = int32(r.Intn(nKeys))
	}
	return out
}

// moveEvent is one scheduled move: when it is due, relative to the start
// of the move phase, and which mobile moves.
type moveEvent struct {
	due    time.Duration
	mobile int
}

// moveSchedule draws Poisson arrivals with mean gap moveMean over d.
func moveSchedule(seed int64, d time.Duration) []moveEvent {
	r := stream(seed, "moves", 0)
	var out []moveEvent
	t := time.Duration(0)
	for {
		t += time.Duration(r.ExpFloat64() * float64(moveMean))
		if t >= d {
			return out
		}
		out = append(out, moveEvent{due: t, mobile: r.Intn(nMobile)})
	}
}

// watchOp is one paced watcher resolve: which watcher asks for which
// mobile's node key.
type watchOp struct {
	watcher, mobile int16
}

func watchSchedule(seed int64, client int) []watchOp {
	r := stream(seed, "watch", client)
	out := make([]watchOp, opRing)
	for i := range out {
		out[i] = watchOp{watcher: int16(r.Intn(nWatcher)), mobile: int16(r.Intn(nMobile))}
	}
	return out
}
