// Patrol: the introduction of the paper motivates location discovery as the
// stepping stone towards "equidistant distribution along the circumference of
// the circle and an optimal boundary patrolling scheme".  This example runs
// location discovery and then lets every agent independently compute the same
// equidistant deployment plan: who has to move where so that the swarm ends
// up evenly spread, ready to patrol the boundary with optimal idle time.
//
// It is a standalone program on the public facade, not a task: ringsim,
// ringfarm and ringd run only the paper's two tasks, coordinate and
// discover, and this example builds on the second.
package main

import (
	"fmt"
	"log"

	"ringsym"
)

func main() {
	log.SetFlags(0)

	const n = 12
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{
		N:              n,
		Model:          ringsym.Lazy,
		MixedChirality: true,
		Seed:           19,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: 19})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("location discovery on %d patrolling robots finished in %d rounds\n\n", n, res.Rounds)

	// Each agent knows the full relative map, so each can compute the same
	// deployment: target slot t (for the agent at ring distance t from the
	// reference agent) sits at t/n of the circumference.  We print the plan
	// computed by the elected leader; every other agent derives the identical
	// plan up to rotation.
	var leader ringsym.AgentDiscovery
	for _, a := range res.PerAgent {
		if a.IsLeader {
			leader = a
		}
	}
	full := 2 * int64(1) << 20 // observation units (half-ticks) of the default circumference
	fmt.Printf("equidistant patrol plan computed by the leader (ID %d):\n", leader.ID)
	fmt.Printf("  %-28s %-14s %-14s %s\n", "robot (ring distance from me)", "current", "target", "move (signed)")
	var maxMove int64
	for t := 0; t < leader.N; t++ {
		target := int64(t) * full / int64(leader.N)
		move := target - leader.Positions[t]
		if move > full/2 {
			move -= full
		}
		if move < -full/2 {
			move += full
		}
		if abs(move) > maxMove {
			maxMove = abs(move)
		}
		fmt.Printf("  %-28d %-14d %-14d %+d\n", t, leader.Positions[t], target, move)
	}
	fmt.Printf("\nlongest relocation: %d observation units (%.3f of the circumference)\n",
		maxMove, float64(maxMove)/float64(full))
	fmt.Println("after relocation the swarm patrols the boundary with optimal idle time 1/n")
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
