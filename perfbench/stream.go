package main

import (
	"fmt"
	"math/rand"

	"xring/internal/service"
)

// The service-mix request stream. It comes from the seed alone: the
// same seed gives the same requests in the same order, so two runs
// with one seed send identical traffic. Every block of blockSize
// requests holds exactly 14 hot-set repeats, 5 fresh fixed-#wl
// requests and 1 fresh 16-node sweep, shuffled; the mix is therefore
// 70/25/5 over any whole number of blocks, fresh requests cycle over
// the floorplan sizes and hits over the hot set, and throughput does
// not drift with the seed. Fresh requests carry a seeded half of the
// all-to-all traffic, so their keys never repeat within a stream.

type reqClass int

const (
	classHit   reqClass = iota // repeat of a hot-set request: a memory-cache hit
	classMiss                  // fresh fixed-#wl request: a miss on a warm ring cache
	classSweep                 // fresh 16-node #wl sweep
)

func (c reqClass) String() string {
	return [...]string{"hit", "miss", "sweep"}[c]
}

const (
	blockSize   = 20
	hitsPerBlk  = 14
	missPerBlk  = 5
	sweepPerBlk = 1
)

// missSizes are the standard floorplans fresh requests cycle through.
var missSizes = []int{8, 16, 32}

// streamReq is one request of the stream.
type streamReq struct {
	class reqClass
	hot   int // hot-set index of a hit
	req   *service.Request
	key   string
	// fresh numbers the fresh requests in stream order; first marks the
	// first fresh request of its kind (floorplan size, or sweep).
	fresh int
	first bool
}

// hotSet is filled during set-up; hits repeat it. Its design bytes are
// recorded in expected.json.
func hotSet() []*service.Request {
	var out []*service.Request
	for _, c := range []struct{ n, wl int }{{8, 4}, {8, 8}, {16, 8}, {16, 16}, {32, 16}, {32, 32}} {
		out = append(out, &service.Request{
			Network: service.NetworkSpec{Standard: c.n},
			Options: service.OptionsSpec{MaxWL: c.wl, WithPDN: true},
		})
	}
	return out
}

func hotName(r *service.Request) string {
	return fmt.Sprintf("hot/%d-wl%d", r.Network.Standard, r.Options.MaxWL)
}

// halfTraffic draws a seeded half of an n-node all-to-all pattern.
func halfTraffic(rng *rand.Rand, n int) []service.SignalSpec {
	all := make([]service.SignalSpec, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				all = append(all, service.SignalSpec{Src: s, Dst: d})
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:len(all)/2]
}

// genStream returns blocks*blockSize requests for a seed.
func genStream(seed int64, blocks int) ([]streamReq, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := hotSet()
	seen := map[string]bool{}
	hotKeys := make([]string, len(hot))
	for i, r := range hot {
		k, err := service.CanonicalKey(r)
		if err != nil {
			return nil, err
		}
		seen[k] = true
		hotKeys[i] = k
	}
	fresh := func(mk func() *service.Request) (*service.Request, string, error) {
		for {
			r := mk()
			k, err := service.CanonicalKey(r)
			if err != nil {
				return nil, "", err
			}
			if !seen[k] {
				seen[k] = true
				return r, k, nil
			}
		}
	}
	var out []streamReq
	misses, nfresh := 0, 0
	// Hits deal the hot set from a deck reshuffled every len(hot)
	// hits, so every entry is repeated equally often whatever the seed.
	var deck []int
	firsts := map[string]bool{}
	for b := 0; b < blocks; b++ {
		classes := make([]reqClass, 0, blockSize)
		for i := 0; i < hitsPerBlk; i++ {
			classes = append(classes, classHit)
		}
		for i := 0; i < missPerBlk; i++ {
			classes = append(classes, classMiss)
		}
		for i := 0; i < sweepPerBlk; i++ {
			classes = append(classes, classSweep)
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for _, c := range classes {
			s := streamReq{class: c}
			var err error
			switch c {
			case classHit:
				if len(deck) == 0 {
					deck = rng.Perm(len(hot))
				}
				s.hot, deck = deck[0], deck[1:]
				s.req, s.key = hot[s.hot], hotKeys[s.hot]
			case classMiss:
				n := missSizes[misses%len(missSizes)]
				misses++
				s.req, s.key, err = fresh(func() *service.Request {
					return &service.Request{
						Network: service.NetworkSpec{Standard: n},
						Options: service.OptionsSpec{MaxWL: n / 2, WithPDN: true, Traffic: halfTraffic(rng, n)},
					}
				})
			case classSweep:
				s.req, s.key, err = fresh(func() *service.Request {
					return &service.Request{
						Network: service.NetworkSpec{Standard: 16},
						Options: service.OptionsSpec{WithPDN: true, Sweep: true, Objective: "min-power",
							Traffic: halfTraffic(rng, 16)},
					}
				})
			}
			if err != nil {
				return nil, err
			}
			if c != classHit {
				s.fresh = nfresh
				nfresh++
				kind := fmt.Sprintf("%d/%v", s.req.Network.Standard, s.req.Options.Sweep)
				s.first = !firsts[kind]
				firsts[kind] = true
			}
			out = append(out, s)
		}
	}
	return out, nil
}
