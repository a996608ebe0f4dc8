// Swarmlocate: a swarm of bouncing robots with no communication, no common
// sense of direction and only the first-collision sensor of the perceptive
// model localises every member of the swarm in about n/2 rounds (Theorem 42)
// — roughly half of what the lazy-model sweep needs — and reports where the
// round budget went.
//
// It is a standalone program on the public facade, not a task; `ringsim
// -task discover -model perceptive` runs the same location discovery.
package main

import (
	"fmt"
	"log"

	"ringsym"
)

func main() {
	log.SetFlags(0)

	const n = 32
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{
		N:              n,
		Model:          ringsym.Perceptive,
		MixedChirality: true,
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("perceptive swarm of %d robots, identifiers bounded by N=%d\n", n, 4*n)
	fmt.Printf("total rounds: %d\n\n", res.Rounds)

	var leader ringsym.AgentDiscovery
	for _, a := range res.PerAgent {
		if a.IsLeader {
			leader = a
		}
	}
	fmt.Printf("elected leader: ID %d\n", leader.ID)
	fmt.Printf("round budget of the run:\n")
	fmt.Printf("  symmetry breaking + ring distances (o(n) term): %d rounds\n", res.RoundsCoordination)
	fmt.Printf("  Distances schedule (the n/2 term):              %d rounds\n", res.RoundsDiscovery)
	fmt.Printf("  Lemma 6 lower bound for any perceptive solution: %d rounds\n",
		ringsym.LocationDiscoveryLowerBound(ringsym.Perceptive, n))
	fmt.Printf("  lazy-model sweep would need:                     %d rounds for this term\n\n", n)

	// Every agent reconstructed the same ring, each from its own viewpoint.
	fmt.Printf("agent maps (first 5 agents, first 6 entries of each map):\n")
	for i := 0; i < 5; i++ {
		a := res.PerAgent[i]
		fmt.Printf("  agent %2d (ID %3d): %v ...\n", i, a.ID, a.Positions[:6])
	}
	fmt.Println("\nall maps verified against the simulator's ground truth")
}
