package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// tallyCandidates counts a classified pass the per-candidate way: each
// node in order reads its class's verdict and moves the ledger's
// counters one candidate moves. On a pass that errs, it counts the prefix
// the pass reached: the nodes before the first solo-feasible one.
func tallyCandidates(s *Scheduler, order []*node, failed bool) assessCounts {
	var d assessCounts
	for _, n := range order {
		if failed && n.demand.Feasible() {
			break
		}
		v := &s.verdicts[n.class]
		switch {
		case v.rejected:
			d.prefilterRejects++
		case v.key == nil:
		case v.hit:
			d.hits++
		default:
			d.misses++
			if len(v.seeds) > 0 {
				d.nearHits++
			}
		}
	}
	return d
}

// TestOrderAndMultiplicityProperty drives random Place/Remove/FailNode
// steps under every pre-filter × profile-cache setting. Before each
// arrival it classifies the live nodes and checks the counters, added
// once per class with its member count, against the per-candidate
// tally; after every step it checks the maintained placement order
// against a stable sort of the live nodes by occupancy, and audits.
func TestOrderAndMultiplicityProperty(t *testing.T) {
	menu := append(slices.Clone(equivalenceMenu), Request{Workload: "img-dnn", Load: 0.2}, Request{Workload: "swaptions"})
	for _, noPre := range []bool{false, true} {
		for _, noCache := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefilter=%t/cache=%t", !noPre, !noCache), func(t *testing.T) {
				rng := rand.New(rand.NewSource(23))
				s := New(Options{Nodes: 9, Seed: 23, ScreenIterations: 4, ScreenWorkers: 1,
					DisablePrefilter: noPre, DisableProfileCache: noCache})
				type hosted struct {
					node int
					req  Request
				}
				var placed []hosted
				deaths := 0
				for step := 0; step < 120; step++ {
					switch x := rng.Intn(10); {
					case x < 6:
						req := menu[rng.Intn(len(menu))]
						s.mu.Lock()
						order := s.placeOrder()
						before := s.assessCounts()
						err := s.classify(order, s.resolve(req))
						got := s.assessCounts().sub(before)
						want := tallyCandidates(s, order, err != nil)
						s.mu.Unlock()
						if got != want {
							t.Fatalf("step %d classify(%v) (err %v): counters %+v, per-candidate %+v", step, req, err, got, want)
						}
						if p, err := s.Place(req); err == nil {
							placed = append(placed, hosted{p.Node, req})
						} else if !errors.Is(err, ErrUnplaceable) && req.Workload != "not-a-workload" {
							t.Fatalf("step %d Place(%v): %v", step, req, err)
						}
					case x < 9:
						if len(placed) == 0 {
							continue
						}
						k := rng.Intn(len(placed))
						if err := s.Remove(placed[k].node, placed[k].req); err != nil {
							t.Fatalf("step %d Remove(%+v): %v", step, placed[k], err)
						}
						placed = append(placed[:k], placed[k+1:]...)
					default:
						if deaths == 4 {
							continue
						}
						id := rng.Intn(len(s.nodes))
						out, err := s.FailNode(id)
						if err != nil {
							continue // already dead
						}
						deaths++
						kept := placed[:0]
						for _, h := range placed {
							if h.node != id {
								kept = append(kept, h)
							}
						}
						placed = kept
						for _, o := range out {
							if o.Err == nil {
								placed = append(placed, hosted{o.Node, o.Request})
							}
						}
					}
					var want []*node
					for _, n := range s.nodes {
						if !n.failed {
							want = append(want, n)
						}
					}
					slices.SortStableFunc(want, func(a, b *node) int { return len(a.requests) - len(b.requests) })
					if !s.ordered || !slices.Equal(s.order, want) {
						t.Fatalf("step %d: order %v (built %t), stable sort %v", step, ids(s.order), s.ordered, ids(want))
					}
					mustAudit(t, s)
				}
				if deaths == 0 || len(placed) == 0 {
					t.Fatalf("stream reached %d failures and %d live jobs; it must exercise both", deaths, len(placed))
				}
			})
		}
	}
}
